package scaler

import (
	"fmt"
	"math"
	"time"

	"robustscale/internal/forecast"
	"robustscale/internal/obs"
	"robustscale/internal/optimize"
	"robustscale/internal/timeseries"
)

// DegradationMode is the guard's position on the degradation ladder.
type DegradationMode int

// The degradation ladder, in engagement order. Each rung trusts less of
// the predictive stack than the one before it.
const (
	// ModeNormal: the primary strategy planned from a healthy fan.
	ModeNormal DegradationMode = iota
	// ModeRepair: the fan had defects (NaN/Inf, crossing, blow-up) that
	// were repaired; the plan was recomputed from the repaired fan.
	ModeRepair
	// ModeLastKnownGood: the forecaster errored or produced an
	// unrepairable fan; the plan reuses the last healthy fan.
	ModeLastKnownGood
	// ModeReactive: no healthy fan exists; a reactive threshold rule
	// plans from (sanitized) history alone.
	ModeReactive
)

// String returns the mode label used in metrics, journal events and
// decision records.
func (m DegradationMode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeRepair:
		return "repair"
	case ModeLastKnownGood:
		return "last-known-good"
	case ModeReactive:
		return "reactive"
	default:
		return fmt.Sprintf("mode-%d", int(m))
	}
}

// Guard instruments on the process-wide registry.
var (
	degradationMode = obs.Default.Gauge(
		"robustscale_degradation_mode",
		"Guard degradation mode of the latest planning round: 0 normal, 1 repair, 2 last-known-good, 3 reactive.")
	guardFallbacks = obs.Default.CounterVec(
		"robustscale_guard_fallbacks_total",
		"Guarded planning rounds that engaged a degradation mode, by mode.",
		"mode")
	guardFanRepairs = obs.Default.Counter(
		"robustscale_guard_fan_repairs_total",
		"Quantile-fan entries repaired by the guard (non-finite, crossing, or blown-up values).")
	guardTelemetryRepairs = obs.Default.Counter(
		"robustscale_guard_telemetry_repairs_total",
		"Non-finite history observations repaired by the guard before planning.")
)

// HealthFunc reports whether the predictive stack is trusted; a false
// verdict (e.g. a rolling-calibration coverage or wQL breach) makes the
// guard skip the primary strategy for the round. The reason is surfaced
// in journal events and decision records.
type HealthFunc func() (ok bool, reason string)

// GuardConfig tunes the guard's validation bounds and fallback planning.
type GuardConfig struct {
	// Theta is the per-node workload threshold; required.
	Theta float64
	// Tau is the quantile level used to replan from a repaired or
	// last-known-good fan (default 0.9).
	Tau float64
	// BlowupFactor bounds a sane forecast: quantile values above
	// BlowupFactor times the recent history maximum are clamped
	// (default 8; negative disables).
	BlowupFactor float64
	// HistoryWindow is the trailing step count the sanity bound is
	// computed over (default 288, two days at 10-minute steps).
	HistoryWindow int
	// FallbackWindow is the trailing window of the built-in reactive
	// fallback rule (default 6).
	FallbackWindow int
}

func (c GuardConfig) withDefaults() GuardConfig {
	if c.Tau == 0 {
		c.Tau = 0.9
	}
	if c.BlowupFactor == 0 {
		c.BlowupFactor = 8
	}
	if c.HistoryWindow <= 0 {
		c.HistoryWindow = 288
	}
	if c.FallbackWindow <= 0 {
		c.FallbackWindow = 6
	}
	return c
}

// Guard wraps a strategy with the resilience mechanisms of the
// degradation ladder: history sanitization, fan validation and repair,
// fallback to the last known-good fan, and finally a reactive threshold
// rule. With a healthy inner strategy the guard is transparent — the
// inner plan is returned bit-identical — so it can wrap every production
// control loop unconditionally.
//
// Guard implements Strategy, FanProvider, Observer and DecisionProvider.
// It is not safe for concurrent Plan calls (neither are the strategies it
// wraps).
type Guard struct {
	// Inner is the primary strategy.
	Inner Strategy
	// Config tunes validation bounds and fallback planning.
	Config GuardConfig
	// Health, when set, is consulted before each round; an unhealthy
	// verdict sends the round down the ladder without calling Inner.
	Health HealthFunc
	// Fallback overrides the built-in ReactiveMax fallback rule.
	Fallback Strategy
	// Clock stamps journal events (virtual time in replays); defaults to
	// time.Now.
	Clock func() time.Time

	mode         DegradationMode
	lastReason   string
	lastGoodFan  *forecast.QuantileForecast
	lastDecision *obs.Decision
	fallback     Strategy
	// finite is the longest history proven all-finite so far; an
	// append-extension of it only needs its new suffix scanned.
	finite forecast.HistoryRef
	// peak caches sanityBound's trailing maximum over finite's history
	// or one it extends: peakAt is its first index, peakFrom and peakLen
	// the scanned range. peakLen == 0 means no cache.
	peak              float64
	peakAt            int
	peakFrom, peakLen int
	// degradedRounds counts rounds that engaged any fallback mode.
	degradedRounds int
}

// Name implements Strategy. The guard is transparent: it reports the
// inner strategy's name so dashboards and decision filters are unchanged
// by wrapping.
func (g *Guard) Name() string { return g.Inner.Name() }

// Mode returns the degradation mode of the most recent planning round.
func (g *Guard) Mode() DegradationMode { return g.mode }

// LastReason returns why the most recent degraded round fell back, or ""
// after a normal round.
func (g *Guard) LastReason() string {
	if g.mode == ModeNormal {
		return ""
	}
	return g.lastReason
}

// DegradedRounds returns how many planning rounds engaged any fallback.
func (g *Guard) DegradedRounds() int { return g.degradedRounds }

// LastFan implements FanProvider: the fan that actually drove the most
// recent plan — the inner strategy's (possibly repaired in place) fan in
// normal and repair modes, the retained fan in last-known-good mode, and
// nil in reactive mode.
func (g *Guard) LastFan() *forecast.QuantileForecast {
	switch g.mode {
	case ModeLastKnownGood:
		return g.lastGoodFan
	case ModeReactive:
		return nil
	default:
		if fp, ok := g.Inner.(FanProvider); ok {
			return fp.LastFan()
		}
		return nil
	}
}

// LastDecision implements DecisionProvider: the inner strategy's record
// after a normal round, the guard's degraded record otherwise.
func (g *Guard) LastDecision() *obs.Decision {
	if g.mode == ModeNormal {
		if dp, ok := g.Inner.(DecisionProvider); ok {
			return dp.LastDecision()
		}
		return nil
	}
	return g.lastDecision
}

// Observe implements Observer, forwarding realized workloads to the
// inner strategy (and the fallback rule, if it learns).
func (g *Guard) Observe(actual []float64) {
	if o, ok := g.Inner.(Observer); ok {
		o.Observe(actual)
	}
	if g.fallback != nil {
		if o, ok := g.fallback.(Observer); ok {
			o.Observe(actual)
		}
	}
}

// Plan implements Strategy: the guarded control loop of one round.
func (g *Guard) Plan(history *timeseries.Series, h int) ([]int, error) {
	return g.plan(history, h, nil, false)
}

// PlanInto implements InPlacePlanner: the inner strategy plans on its
// fast path (warm forecasts, reused buffers) while every rung of the
// guard ladder stays armed. A history sanitized onto a copy no longer
// shares its backing array with the live series, so warm forecasters
// self-invalidate and rebuild cold — bit-identical by the warm contract.
func (g *Guard) PlanInto(history *timeseries.Series, h int, dst []int) ([]int, error) {
	return g.plan(history, h, dst, true)
}

func (g *Guard) plan(history *timeseries.Series, h int, dst []int, fast bool) ([]int, error) {
	if g.Inner == nil {
		return nil, fmt.Errorf("scaler: guard has no inner strategy")
	}
	cfg := g.Config.withDefaults()
	if cfg.Theta <= 0 {
		return nil, fmt.Errorf("scaler: guard threshold %v", cfg.Theta)
	}
	if cfg.Tau <= 0 || cfg.Tau >= 1 {
		return nil, fmt.Errorf("scaler: guard quantile level %v outside (0, 1)", cfg.Tau)
	}
	hist, chained := g.sanitizeHistory(history)
	if g.Health != nil {
		if ok, why := g.Health(); !ok {
			return g.fallbackPlan(hist, h, cfg, "calibration breach: "+why)
		}
	}
	var plan []int
	var err error
	if ipp, ok := g.Inner.(InPlacePlanner); fast && ok {
		plan, err = ipp.PlanInto(hist, h, dst)
	} else {
		plan, err = g.Inner.Plan(hist, h)
	}
	if err != nil {
		return g.fallbackPlan(hist, h, cfg, fmt.Sprintf("forecaster error: %v", err))
	}
	bound := g.sanityBound(hist, cfg, chained)
	var fan *forecast.QuantileForecast
	if fp, ok := g.Inner.(FanProvider); ok {
		fan = fp.LastFan()
	}
	if fan == nil {
		// Reactive or point-forecast inner: nothing to repair but the
		// plan itself, clamped against the sanity bound.
		if clamps := clampPlan(plan, bound, cfg.Theta); clamps > 0 {
			guardFanRepairs.Add(float64(clamps))
			g.enterMode(ModeRepair, fmt.Sprintf("clamped %d blown-up plan steps", clamps))
			g.setPathDecision(cfg, nil, plan, h, ModeRepair)
			return plan, nil
		}
		g.recover()
		return plan, nil
	}
	repairs, err := RepairFan(fan, bound)
	if err != nil {
		return g.fallbackPlan(hist, h, cfg, fmt.Sprintf("unrepairable fan: %v", err))
	}
	if repairs > 0 {
		guardFanRepairs.Add(float64(repairs))
		plan, path, err := planFromFan(fan, h, cfg.Tau, cfg.Theta)
		if err != nil {
			return g.fallbackPlan(hist, h, cfg, fmt.Sprintf("replanning repaired fan: %v", err))
		}
		g.enterMode(ModeRepair, fmt.Sprintf("repaired %d fan entries", repairs))
		g.storeLastGood(fan)
		g.setPathDecision(cfg, path, plan, h, ModeRepair)
		return plan, nil
	}
	g.recover()
	g.storeLastGood(fan)
	return plan, nil
}

// fallbackPlan walks the remaining rungs of the ladder: last-known-good
// fan, then the reactive threshold rule.
func (g *Guard) fallbackPlan(hist *timeseries.Series, h int, cfg GuardConfig, why string) ([]int, error) {
	sp := obs.DefaultTracer.Start("guard-fallback")
	defer sp.End()
	if g.lastGoodFan != nil {
		plan, path, err := planFromFan(g.lastGoodFan, h, cfg.Tau, cfg.Theta)
		if err == nil {
			g.enterMode(ModeLastKnownGood, why)
			g.setPathDecision(cfg, path, plan, h, ModeLastKnownGood)
			return plan, nil
		}
		why = fmt.Sprintf("%s; last-known-good replan failed: %v", why, err)
	}
	fb := g.fallbackStrategy(cfg)
	plan, err := fb.Plan(hist, h)
	if err != nil {
		return nil, fmt.Errorf("scaler: guard fallback ladder exhausted (%s): %w", why, err)
	}
	g.enterMode(ModeReactive, why)
	g.setFallbackDecision(fb, plan, h, cfg)
	return plan, nil
}

// fallbackStrategy returns the reactive rung, building the default
// ReactiveMax rule on first use.
func (g *Guard) fallbackStrategy(cfg GuardConfig) Strategy {
	if g.Fallback != nil {
		return g.Fallback
	}
	if g.fallback == nil {
		g.fallback = &ReactiveMax{Window: cfg.FallbackWindow, Theta: cfg.Theta}
	}
	return g.fallback
}

// sanitizeHistory guarantees the history handed to any strategy is
// finite: non-finite observations (telemetry dropout) are repaired on a
// copy by carrying the last finite value forward (backward for a
// non-finite prefix). A fully finite history — the overwhelmingly common
// case — is passed through untouched, same pointer. An append-extension
// of the last history proven finite (the warm forecasters' HistoryRef
// contract) has only its new suffix scanned; any other history is
// scanned in full. chained reports that the returned history is the
// caller's, now recorded in finite. The sanity-bound cache always
// describes finite's history or one it extends: a history that fails
// the Extends check drops it.
func (g *Guard) sanitizeHistory(s *timeseries.Series) (hist *timeseries.Series, chained bool) {
	if s == nil {
		return s, false
	}
	from := 0
	if g.finite.Extends(s) {
		from = g.finite.Len()
	} else {
		g.peakLen = 0
	}
	if allFinite(s.Values[from:]) {
		g.finite.Record(s)
		return s, true
	}
	bad := 0
	for _, v := range s.Values {
		if !isFinite(v) {
			bad++
		}
	}
	out := s.Clone()
	last, haveLast := 0.0, false
	for i, v := range out.Values {
		if isFinite(v) {
			last, haveLast = v, true
			continue
		}
		if haveLast {
			out.Values[i] = last
		} else {
			out.Values[i] = 0 // non-finite prefix: fixed below if possible
		}
	}
	if !haveLast {
		// No finite observation at all; zeros make downstream strategies
		// hold the one-node floor instead of propagating NaN.
		guardTelemetryRepairs.Add(float64(bad))
		return out, false
	}
	// Back-fill a non-finite prefix from the first finite value.
	first := math.NaN()
	for _, v := range s.Values {
		if isFinite(v) {
			first = v
			break
		}
	}
	for i, v := range s.Values {
		if isFinite(v) {
			break
		}
		_ = v
		out.Values[i] = first
	}
	guardTelemetryRepairs.Add(float64(bad))
	obs.DefaultJournal.RecordAt(g.now(), "degraded",
		fmt.Sprintf("guard repaired %d non-finite telemetry observations", bad),
		map[string]float64{"repaired": float64(bad)})
	return out, false
}

// sanityBound returns the blow-up containment ceiling: BlowupFactor
// times the recent history maximum, or 0 (disabled) without usable
// history. On a chained history whose cached peak is still inside the
// window and still holds its value, only the appended suffix is
// scanned; otherwise the whole window is, exactly as a fresh guard
// would. Both find the same first maximum, so the bound is bit-equal.
// Only a chained history's scan is cached.
func (g *Guard) sanityBound(hist *timeseries.Series, cfg GuardConfig, chained bool) float64 {
	if cfg.BlowupFactor < 0 || hist == nil || hist.Len() == 0 {
		return 0
	}
	n := hist.Len()
	start := n - cfg.HistoryWindow
	if start < 0 {
		start = 0
	}
	from, peak, at := start, math.Inf(-1), -1
	if chained && g.peakLen > 0 && start >= g.peakFrom && g.peakAt >= start &&
		hist.Values[g.peakAt] == g.peak {
		from, peak, at = g.peakLen, g.peak, g.peakAt
	}
	for i := from; i < n; i++ {
		if v := hist.Values[i]; v > peak {
			peak, at = v, i
		}
	}
	if chained {
		g.peak, g.peakAt, g.peakFrom, g.peakLen = peak, at, start, n
	}
	if !isFinite(peak) || peak <= 0 {
		return 0
	}
	return cfg.BlowupFactor * peak
}

// clampPlan bounds a fan-less plan by the allocation the sanity bound
// justifies, returning how many steps were clamped.
func clampPlan(plan []int, bound, theta float64) int {
	if bound <= 0 {
		return 0
	}
	maxAlloc := optimize.Allocate(bound, theta)
	clamps := 0
	for i, n := range plan {
		if n > maxAlloc {
			plan[i] = maxAlloc
			clamps++
		}
	}
	return clamps
}

// planFromFan replans the horizon from a fan's Tau-quantile path,
// repeating the fan's last step when the horizon outruns it.
func planFromFan(fan *forecast.QuantileForecast, h int, tau, theta float64) ([]int, []float64, error) {
	if fan.Horizon() == 0 {
		return nil, nil, fmt.Errorf("scaler: empty fan")
	}
	path := make([]float64, h)
	for t := 0; t < h; t++ {
		src := t
		if src >= fan.Horizon() {
			src = fan.Horizon() - 1
		}
		path[t] = fan.At(src, tau)
	}
	plan, err := optimize.Plan(path, theta)
	if err != nil {
		return nil, nil, err
	}
	return plan, path, nil
}

// storeLastGood retains a deep copy of a healthy (or repaired) fan for
// the last-known-good rung, copying into the retained fan's buffers.
func (g *Guard) storeLastGood(fan *forecast.QuantileForecast) {
	if fan == nil || fan.Horizon() == 0 {
		return
	}
	c := g.lastGoodFan
	if c == nil {
		c = &forecast.QuantileForecast{}
		g.lastGoodFan = c
	}
	c.Levels = append(c.Levels[:0], fan.Levels...)
	c.Mean = append(c.Mean[:0], fan.Mean...)
	if cap(c.Values) < len(fan.Values) {
		c.Values = make([][]float64, len(fan.Values))
	}
	c.Values = c.Values[:len(fan.Values)]
	for t, row := range fan.Values {
		c.Values[t] = append(c.Values[t][:0], row...)
	}
}

// enterMode records a degraded round in the counters and journal, and a
// rung change in the gauge.
func (g *Guard) enterMode(mode DegradationMode, reason string) {
	if mode != g.mode {
		degradationMode.Set(float64(mode))
	}
	g.mode = mode
	g.lastReason = reason
	if mode == ModeNormal {
		return
	}
	g.degradedRounds++
	guardFallbacks.With(mode.String()).Inc()
	obs.DefaultJournal.RecordAt(g.now(), "degraded",
		fmt.Sprintf("guard engaged %s: %s", mode, reason),
		map[string]float64{"mode": float64(mode)})
}

// recover returns the guard to normal, journaling the transition when a
// degraded round preceded it.
func (g *Guard) recover() {
	if g.mode != ModeNormal {
		obs.DefaultJournal.RecordAt(g.now(), "recovered",
			fmt.Sprintf("guard recovered to normal from %s", g.mode),
			map[string]float64{"mode": 0})
		degradationMode.Set(0)
	}
	g.mode = ModeNormal
	g.lastReason = ""
	g.lastDecision = nil
}

func (g *Guard) now() time.Time {
	if g.Clock != nil {
		return g.Clock()
	}
	return time.Now()
}

// setPathDecision assembles the degraded decision record for a plan
// driven by a quantile path (repair and last-known-good modes). path may
// be nil for clamp-only repairs, leaving the inner record's audit fields
// in place.
func (g *Guard) setPathDecision(cfg GuardConfig, path []float64, plan []int, h int, mode DegradationMode) {
	if !obs.DefaultDecisions.Enabled() {
		g.lastDecision = nil
		return
	}
	if path == nil {
		// Clamp-only repair: reuse the inner record, overriding the plan.
		if dp, ok := g.Inner.(DecisionProvider); ok {
			if d := dp.LastDecision(); d != nil {
				copied := *d
				copied.Nodes = plan
				copied.Degraded = mode.String()
				copied.DegradedReason = g.lastReason
				g.lastDecision = &copied
				return
			}
		}
		g.lastDecision = &obs.Decision{
			Strategy: g.Name(), Horizon: h, Theta: cfg.Theta, Nodes: plan,
			Degraded: mode.String(), DegradedReason: g.lastReason,
		}
		return
	}
	d := pathDecision(g.lastDecision, g.Name(), cfg.Theta, path, plan)
	d.Tau = resizeFloats(d.Tau, h)
	for t := range d.Tau {
		d.Tau[t] = cfg.Tau
	}
	d.Tau1, d.Tau2 = cfg.Tau, cfg.Tau
	d.Degraded = mode.String()
	d.DegradedReason = g.lastReason
	g.lastDecision = d
}

// setFallbackDecision derives the reactive rung's decision record from
// the fallback strategy, annotated with the degradation context.
func (g *Guard) setFallbackDecision(fb Strategy, plan []int, h int, cfg GuardConfig) {
	if !obs.DefaultDecisions.Enabled() {
		g.lastDecision = nil
		return
	}
	var d *obs.Decision
	if dp, ok := fb.(DecisionProvider); ok {
		if inner := dp.LastDecision(); inner != nil {
			copied := *inner
			d = &copied
		}
	}
	if d == nil {
		d = &obs.Decision{Strategy: g.Name(), Horizon: h, Theta: cfg.Theta, Nodes: plan}
	}
	d.Strategy = g.Name()
	d.Degraded = ModeReactive.String()
	d.DegradedReason = g.lastReason
	g.lastDecision = d
}
