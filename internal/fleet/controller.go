package fleet

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"robustscale/internal/chaos"
	"robustscale/internal/cluster"
	"robustscale/internal/forecast"
	"robustscale/internal/obs"
	"robustscale/internal/parallel"
	"robustscale/internal/persist"
	"robustscale/internal/scaler"
	"robustscale/internal/timeseries"
	"robustscale/internal/trace"
)

// Guard defaults shared by every tenant; they mirror the single-tenant
// daemon's flag defaults.
const (
	guardBlowupFactor  = 8
	guardCoverageSlack = 0.25
)

// fnv64 constants for the rolling allocation hash.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// loopExtra is the fleet controller's owner-defined checkpoint section
// (persist.State.Extra): loop accounting that no existing component
// covers, carried across restarts so a warm-started tenant's rolling
// hash and cost totals continue instead of restarting from zero.
type loopExtra struct {
	// AllocHash is the rolling FNV-1a hash over every allocation the
	// tenant ever committed.
	AllocHash uint64
	// Cost is the cumulative node-steps the tenant has paid for.
	Cost int64
	// Pool and quarantine lifetime counters (added with the shared
	// capacity pool; gob tolerates their absence in older blobs, so no
	// format version bump is needed — old snapshots decode with zeros).
	ShedNodes      int64
	ClippedRounds  int
	Flap           int
	QuarantineLeft int
	Quarantines    int
	// Serverless wake state (added with scale-to-zero; absent in older
	// blobs, decoding to nil/zero): the wake-guard hysteresis machine,
	// the per-tenant plant mid-wake state, the wake-latency sketch and
	// the parked-step total. Restoring them is what lets a kill mid-wake
	// resume bit-identically.
	Wake        []byte
	Plant       []byte
	WakeLat     []byte
	ParkedSteps int64
}

// Tenant is one isolated control loop inside the fleet: trace,
// forecaster, calibration, guard, breaker and checkpoint namespace are
// all private, so a planning round touches nothing shared beyond the
// process-wide (atomic) metric counters.
type Tenant struct {
	// ID is the tenant id; Index its position in the fleet.
	ID    string
	Index int
	// Archetype names the workload archetype ("alibaba" or "google").
	Archetype string
	// Seed is the derived per-tenant seed.
	Seed int64
	// Class is the tenant's admission priority class.
	Class PriorityClass

	series   *timeseries.Series
	trainEnd int

	planner scaler.Strategy
	guard   *scaler.Guard
	snapper forecast.Snapshotter
	fans    scaler.FanProvider
	applier *scaler.Applier
	cal     *cluster.Calibration
	calGate func() (bool, string)
	mgr     *persist.Manager
	fp      persist.Fingerprint
	rho     float64

	forecasterKind string

	// Loop state; the plan/admit/apply phases are the only writers after
	// construction (parallel phases touch only per-tenant fields, the
	// sequential admission barrier runs in index order).
	origin     int
	cursor     int
	alloc      int
	prevAlloc  int
	steps      int
	violations int
	holds      int
	cost       int64
	allocHash  uint64
	warm       bool
	corrupt    int
	err        error

	// Admission / quarantine state. pending is the plan awaiting
	// admission between the plan and apply phases (aliases planBuf);
	// roundPlanner is the strategy that produced it (the quarantine
	// fallback or the tenant's own planner).
	pending        []int
	roundPlanner   scaler.Strategy
	reactive       *scaler.ReactiveMax
	shedRound      int
	shedReason     string
	shedTotal      int64
	clippedRounds  int
	flap           int
	quarantineLeft int
	quarantines    int
	planDur        float64

	// Chaos wiring; nil when the tenant is not enrolled in a fault
	// schedule. faulted reports whether any fault targets this tenant.
	sched       *chaos.Schedule
	chaosCursor *chaos.Cursor
	faulted     bool

	// Serverless state; all nil/zero unless cfg.Serverless. The plant is
	// the tenant's ground-truth capacity machine; wakeGuard shapes plans
	// with park/wake hysteresis; wakeLat streams completed-wake latency
	// into a mergeable sketch; wakeReason annotates the round's decision
	// record for -explain.
	wakeGuard   *scaler.WakeGuard
	sless       *cluster.Serverless
	wakeLat     *obs.Sketch
	parkedSteps int64
	wakeReason  string

	histView *timeseries.Series
	planBuf  []int
	// dur streams planning latency into a mergeable sketch instead of an
	// unbounded slice: O(buckets) memory per tenant at any fleet size.
	dur *obs.Sketch
	// sloBlob is the fleet SLO tracker state recovered from this
	// tenant's checkpoint (only tenant 0 carries it).
	sloBlob []byte

	violCounter  *obs.Counter
	roundCounter *obs.Counter
	wakeStarts   *obs.Counter
	wakeFailures *obs.Counter
	wakeLatHist  *obs.Histogram
}

// now is the tenant's virtual clock, feeding its guard and breaker.
func (t *Tenant) now() time.Time {
	i := t.cursor
	if i >= t.series.Len() {
		i = t.series.Len() - 1
	}
	return t.series.TimeAt(i)
}

// Rounds returns how many planning rounds the tenant has completed over
// its whole lifetime (including rounds replayed before a warm restart).
func (t *Tenant) Rounds() int { return (t.origin - t.trainEnd) / t.fp.Horizon }

// Controller drives the fleet through lock-step planning rounds.
type Controller struct {
	cfg     Config
	tenants []*Tenant

	rounds    int
	lastCkpt  int
	warmCount int
	coldCount int
	corrupt   int

	// slo tracks the fleet-wide error budget over virtual time; nil when
	// cfg.SLOTarget is 0. lastSteps/lastViol are the fleet totals at the
	// previous round boundary, so each round observes only its delta.
	slo       *obs.SLOTracker
	lastSteps int64
	lastViol  int64

	// worstViol/worstCost stream each round's per-tenant violation and
	// cost deltas into space-saving trackers: O(k) memory identifies the
	// tenants eating the error budget and the spend, however large the
	// fleet. Observed in index order after the round barrier, so the
	// lists are deterministic across worker counts.
	worstViol      *obs.TopK
	worstCost      *obs.TopK
	lastTenantViol []int
	lastTenantCost []int64

	// Shared capacity pool and chaos state. chaosSched is nil with chaos
	// disabled; the admission scratch buffers are reused every round.
	chaosSched       *chaos.FleetSchedule
	demandBuf        []int
	admitBuf         []int
	classBuf         []PriorityClass
	shedRounds       int
	admissionRejects int
	peakUtil         float64
}

// New builds the fleet: every tenant's trace is generated, its
// forecaster trained (or warm-started from its checkpoint namespace
// when cfg.StateDir holds a valid one), and its guard, breaker and
// calibration state restored. Construction is batched across the worker
// pool; each tenant is built entirely from its own derived seed and its
// own namespace, so the build is deterministic and order-independent.
func New(cfg Config) (*Controller, error) {
	if cfg.SLOTarget > 0 && cfg.SLOWindow <= 0 {
		cfg.SLOWindow = DefaultSLOWindow
	}
	if cfg.Serverless {
		if cfg.IdleEps == 0 {
			cfg.IdleEps = cfg.Theta / 10
		}
		if cfg.WakeSeconds == 0 {
			cfg.WakeSeconds = 30
		}
		if cfg.WakeCost == 0 {
			cfg.WakeCost = 2
		}
		if cfg.ParkAfterRounds == 0 {
			cfg.ParkAfterRounds = 3
		}
		if cfg.WakeDebounceRounds == 0 {
			cfg.WakeDebounceRounds = 2
		}
		if cfg.KeepWarmAfterFails == 0 {
			cfg.KeepWarmAfterFails = 3
		}
		if cfg.WakeBreakerCooldown == 0 {
			cfg.WakeBreakerCooldown = 6
		}
		if cfg.WakeSLOSeconds == 0 {
			cfg.WakeSLOSeconds = 1800
		}
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Retain <= 0 {
		cfg.Retain = persist.DefaultRetain
	}
	chaosSched, err := buildChaosSchedule(cfg)
	if err != nil {
		return nil, err
	}
	tenants := make([]*Tenant, cfg.Tenants)
	errs := make([]error, cfg.Tenants)
	parallel.ForEachWorkerSpan("fleet-build", cfg.Workers, cfg.Tenants, func(_, i int) {
		tenants[i], errs[i] = buildTenant(cfg, i, chaosSched)
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, tenants: tenants, lastCkpt: -1, chaosSched: chaosSched}
	fleetTenantsGauge.Set(float64(cfg.Tenants))
	// Lifecycle bookkeeping runs sequentially in tenant order so journal
	// entries and start counters land deterministically.
	for _, t := range tenants {
		c.corrupt += t.corrupt
		kind, n := "cold", &c.coldCount
		if t.warm {
			kind, n = "warm", &c.warmCount
		}
		*n++
		obs.DefaultJournal.RecordTenantAt(t.now(), t.ID, "tenant-start",
			fmt.Sprintf("%s start at replay step %d/%d (%s archetype)",
				kind, t.origin-t.trainEnd, t.series.Len()-t.trainEnd, t.Archetype),
			map[string]float64{"warm": b2f(t.warm), "origin": float64(t.origin), "corrupt_snapshots": float64(t.corrupt)})
	}
	fleetWarmStarts.Add(float64(c.warmCount))
	fleetColdStarts.Add(float64(c.coldCount))
	fleetCorruptSnapshots.Add(float64(c.corrupt))
	c.worstViol = obs.NewTopK(worstListSize)
	c.worstCost = obs.NewTopK(worstListSize)
	c.lastTenantViol = make([]int, len(tenants))
	c.lastTenantCost = make([]int64, len(tenants))
	for i, t := range tenants {
		c.lastTenantViol[i] = t.violations
		c.lastTenantCost[i] = t.cost
	}
	if cfg.SLOTarget > 0 {
		c.slo = obs.NewSLOTracker(obs.SLOConfig{
			Target: cfg.SLOTarget, Window: cfg.SLOWindow, Rules: cfg.BurnRules,
		}).InstrumentDefault()
		c.slo.Journal = obs.DefaultJournal
		// The tracker rides tenant 0's checkpoint; a restored blob resumes
		// the budget mid-window, a mismatched one starts fresh.
		if blob := tenants[0].sloBlob; len(blob) > 0 {
			if err := c.slo.Load(bytes.NewReader(blob)); err != nil {
				obs.DefaultJournal.RecordTenantAt(tenants[0].now(), "", "slo",
					fmt.Sprintf("SLO snapshot rejected, starting budget fresh: %v", err), nil)
			}
		}
		// Steps replayed before a restart were already observed by the
		// saved tracker; baseline the deltas at the restored totals.
		for _, t := range tenants {
			c.lastSteps += int64(t.steps)
			c.lastViol += int64(t.violations)
		}
	}
	return c, nil
}

// SLO exposes the fleet's error-budget tracker (nil when disabled).
func (c *Controller) SLO() *obs.SLOTracker { return c.slo }

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// Tenants exposes the fleet members in index order (read-only use).
func (c *Controller) Tenants() []*Tenant { return c.tenants }

// buildChaosSchedule expands cfg's chaos preset into the fleet fault
// schedule; nil when chaos is disabled.
func buildChaosSchedule(cfg Config) (*chaos.FleetSchedule, error) {
	if cfg.Chaos == "" || cfg.Chaos == "none" {
		return nil, nil
	}
	prof, err := chaos.Preset(cfg.Chaos)
	if err != nil {
		return nil, err
	}
	prof.Seed = cfg.ChaosSeed
	if prof.Seed == 0 {
		prof.Seed = cfg.Seed
	}
	prof.Steps = (cfg.Days - cfg.TrainDays) * stepsPerDay()
	zones := cfg.Zones
	if zones == 0 {
		zones = 4
	}
	return chaos.NewFleetSchedule(prof, zones)
}

// chaosEnrolled reports whether tenant-local fault injection targets the
// given tenant id (fleet-level classes always apply).
func chaosEnrolled(cfg Config, id string) bool {
	if len(cfg.ChaosTenants) == 0 {
		return true
	}
	for _, v := range cfg.ChaosTenants {
		if v == id {
			return true
		}
	}
	return false
}

// buildTenant constructs (or recovers) one tenant.
func buildTenant(cfg Config, index int, fs *chaos.FleetSchedule) (*Tenant, error) {
	id := TenantID(index)
	seed := deriveSeed(cfg.Seed, index)
	tr, err := trace.Generate(tenantTrace(cfg, index, seed))
	if err != nil {
		return nil, fmt.Errorf("fleet: %s: %w", id, err)
	}
	series, err := tr.Series(trace.CPU)
	if err != nil {
		return nil, fmt.Errorf("fleet: %s: %w", id, err)
	}
	trainEnd := cfg.TrainDays * stepsPerDay()

	t := &Tenant{
		ID: id, Index: index, Archetype: archetypeOf(cfg, index), Seed: seed,
		Class:  ClassOf(index),
		series: series, trainEnd: trainEnd,
		origin: trainEnd, cursor: trainEnd,
		alloc: 1, prevAlloc: 1,
		allocHash:    fnvOffset,
		dur:          obs.NewSketch(obs.DefaultSketchAlpha),
		histView:     &timeseries.Series{Name: series.Name, Start: series.Start, Step: series.Step},
		violCounter:  fleetTenantViolations.With(id),
		roundCounter: fleetTenantRounds.With(id),
	}
	if cfg.Serverless {
		t.wakeGuard = &scaler.WakeGuard{
			Config: scaler.WakeGuardConfig{
				MinIdleRounds:         cfg.ParkAfterRounds,
				WakeDebounceRounds:    cfg.WakeDebounceRounds,
				KeepWarmAfterFails:    cfg.KeepWarmAfterFails,
				BreakerCooldownRounds: cfg.WakeBreakerCooldown,
			},
			Tenant: id,
			Clock:  t.now,
		}
		t.sless, err = cluster.NewServerless(cluster.ServerlessConfig{
			WakeSeconds: cfg.WakeSeconds,
			StepSeconds: series.Step.Seconds(),
			WakeCost:    cfg.WakeCost,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: %s: %w", id, err)
		}
		t.wakeLat = obs.NewSketch(obs.DefaultSketchAlpha)
		t.wakeStarts = fleetWakeStarts.With(id)
		t.wakeFailures = fleetWakeFailures.With(id)
		t.wakeLatHist = fleetWakeLatency.With(id)
	}
	if fs != nil {
		// The tenant's fault schedule is the exact restriction of the
		// all-tenant run, derived from the master seed. Tenants outside an
		// explicit enrollment list stay completely dark (empty schedule) —
		// the single-victim isolation drill relies on it — while the
		// pool-level classes (collapse, admission rejects) are consulted by
		// the controller and apply regardless.
		if chaosEnrolled(cfg, id) {
			if t.sched, err = fs.TenantSchedule(index, id); err != nil {
				return nil, fmt.Errorf("fleet: %s: %w", id, err)
			}
		} else {
			t.sched = &chaos.Schedule{}
		}
		t.chaosCursor = &chaos.Cursor{}
		t.faulted = !t.sched.Empty()
	}
	t.fp = persist.Fingerprint{
		Strategy: cfg.Strategy, Tenant: id, Dataset: t.Archetype, Seed: seed,
		Theta: cfg.Theta, Horizon: cfg.Horizon, Tau: cfg.Tau, Tau2: cfg.Tau2,
	}

	// Recover this tenant's namespace before training: a valid snapshot
	// supplies the model and loop state, skipping the cold fit entirely.
	var recovered *persist.State
	if cfg.StateDir != "" {
		if t.mgr, err = persist.NewTenantManager(cfg.StateDir, id, cfg.Retain); err != nil {
			return nil, fmt.Errorf("fleet: %s: %w", id, err)
		}
		st, info, rerr := t.mgr.Recover()
		t.corrupt = len(info.Rejected)
		switch {
		case rerr != nil || st == nil:
			// No usable snapshot: plain cold start.
		case st.Fingerprint != t.fp:
			// A neighbour's (or stale-config) snapshot never warm-starts
			// this tenant.
		case st.Origin < trainEnd || st.Origin > series.Len() || (st.Origin-trainEnd)%cfg.Horizon != 0:
			// Misaligned origin: the replay could not resume on a round
			// boundary.
		default:
			recovered = st
		}
	}

	var model []byte
	if recovered != nil {
		model = recovered.Forecaster
		if cfg.Rho <= 0 && recovered.Rho > 0 {
			t.rho = recovered.Rho
		}
	}
	if err := t.buildPlanner(cfg, model); err != nil {
		if model == nil {
			return nil, fmt.Errorf("fleet: %s: %w", id, err)
		}
		// A snapshot whose model no longer loads degrades this one tenant
		// to a cold start; its decisions are re-derived deterministically
		// from the seed, so fleet totals are unaffected.
		recovered = nil
		t.rho = 0
		if err := t.buildPlanner(cfg, nil); err != nil {
			return nil, fmt.Errorf("fleet: %s: %w", id, err)
		}
	}

	if recovered != nil {
		t.restore(cfg, recovered)
	}
	return t, nil
}

// buildPlanner trains (model == nil) or restores the forecaster and
// assembles the tenant's guarded strategy, applier and breaker.
func (t *Tenant) buildPlanner(cfg Config, model []byte) error {
	train := t.series.Slice(0, t.trainEnd)
	var strat scaler.Strategy
	switch cfg.Strategy {
	case StrategyReactiveMax:
		strat = &scaler.ReactiveMax{Window: 6, Theta: cfg.Theta}
	default:
		qf, snapper := buildForecaster(cfg, t.Seed)
		t.forecasterKind = cfg.Forecaster
		if model != nil {
			if err := snapper.Load(bytes.NewReader(model)); err != nil {
				return fmt.Errorf("restoring %s from checkpoint: %w", qf.Name(), err)
			}
		} else if err := fitForecaster(cfg, qf, train); err != nil {
			return err
		}
		t.snapper = snapper
		if cfg.Strategy == StrategyAdaptive {
			rho := cfg.Rho
			if rho <= 0 {
				rho = t.rho
			}
			if rho <= 0 {
				var err error
				// Rho calibrates against the unwrapped forecaster: training-time
				// derivation must not consult the fault schedule.
				if rho, err = calibrateRho(qf, train, cfg.Horizon); err != nil {
					return err
				}
			}
			t.rho = rho
		}
		// Planning-time inference goes through the chaos wrapper when the
		// tenant carries a fault schedule; snapshots keep talking to the
		// unwrapped model.
		planQF := qf
		if t.sched != nil {
			planQF = &chaos.Forecaster{Inner: qf, Schedule: t.sched, Cursor: t.chaosCursor}
		}
		if cfg.Strategy == StrategyAdaptive {
			strat = &scaler.Adaptive{Forecaster: planQF, Tau1: cfg.Tau, Tau2: cfg.Tau2, Rho: t.rho, Theta: cfg.Theta}
		} else {
			strat = &scaler.Robust{Forecaster: planQF, Tau: cfg.Tau, Theta: cfg.Theta}
		}
	}
	t.planner = strat
	if cfg.Guard {
		t.guard = &scaler.Guard{
			Inner:  strat,
			Config: scaler.GuardConfig{Theta: cfg.Theta, Tau: cfg.Tau, BlowupFactor: guardBlowupFactor},
			Clock:  t.now,
			Health: func() (bool, string) {
				if t.calGate == nil {
					return true, ""
				}
				return t.calGate()
			},
		}
		t.planner = t.guard
	}
	t.fans, _ = t.planner.(scaler.FanProvider)
	apply := func(n int) error { t.alloc = n; return nil }
	if t.sched != nil {
		apply = chaos.WrapApply(apply, func() int { return t.alloc }, t.sched, t.chaosCursor)
	}
	t.applier = &scaler.Applier{
		Apply:   apply,
		Backoff: scaler.BackoffConfig{MaxAttempts: 1},
		Breaker: &scaler.Breaker{},
		Clock:   t.now,
	}
	return nil
}

// fitForecaster trains one tenant's model; the quantile MLP trains for
// the fleet horizon instead of its 72-step default.
func fitForecaster(cfg Config, qf forecast.QuantileForecaster, train *timeseries.Series) error {
	if m, ok := qf.(*forecast.QuantileMLP); ok && cfg.Forecaster == ForecasterQuantileMLP {
		return m.FitHorizon(train, cfg.Horizon)
	}
	type fitter interface {
		Fit(*timeseries.Series) error
	}
	return qf.(fitter).Fit(train)
}

// calibrateRho derives the adaptive uncertainty threshold as the median
// uncertainty of a forecast made at the end of training — the same rule
// the single-tenant daemon uses, evaluated per tenant.
func calibrateRho(qf forecast.QuantileForecaster, train *timeseries.Series, horizon int) (float64, error) {
	fan, err := qf.PredictQuantiles(train, horizon, forecast.ScalingLevels)
	if err != nil {
		return 0, err
	}
	us, err := scaler.Uncertainties(fan)
	if err != nil {
		return 0, err
	}
	s := timeseries.New("u", train.Start, train.Step, us)
	return s.Quantile(0.5), nil
}

// restore applies a recovered snapshot's loop and component state. Any
// single blob failing to load degrades that component to fresh state;
// the loop counters and Extra section are plain values and always apply.
func (t *Tenant) restore(cfg Config, st *persist.State) {
	t.warm = true
	t.origin, t.cursor = st.Origin, st.Origin
	if st.PrevAlloc > 0 {
		t.alloc, t.prevAlloc = st.PrevAlloc, st.PrevAlloc
	}
	t.steps, t.violations, t.holds = st.Steps, st.Violations, st.Holds
	t.sloBlob = st.SLO
	if len(st.Extra) > 0 {
		var extra loopExtra
		if err := gob.NewDecoder(bytes.NewReader(st.Extra)).Decode(&extra); err == nil {
			t.allocHash, t.cost = extra.AllocHash, extra.Cost
			t.shedTotal, t.clippedRounds = extra.ShedNodes, extra.ClippedRounds
			t.flap, t.quarantineLeft, t.quarantines = extra.Flap, extra.QuarantineLeft, extra.Quarantines
			t.parkedSteps = extra.ParkedSteps
			if t.wakeGuard != nil && len(extra.Wake) > 0 {
				_ = t.wakeGuard.Load(bytes.NewReader(extra.Wake))
			}
			if t.sless != nil && len(extra.Plant) > 0 {
				_ = t.sless.Load(bytes.NewReader(extra.Plant))
			}
			if t.wakeLat != nil && len(extra.WakeLat) > 0 {
				_ = t.wakeLat.Load(bytes.NewReader(extra.WakeLat))
			}
		}
	}
	if t.guard != nil && len(st.Guard) > 0 {
		_ = t.guard.Load(bytes.NewReader(st.Guard))
	}
	if len(st.Breaker) > 0 {
		_ = t.applier.Breaker.Load(bytes.NewReader(st.Breaker))
	}
	if len(st.Calibration) > 0 {
		if cal, err := cluster.LoadCalibration(bytes.NewReader(st.Calibration)); err == nil {
			t.armCalibration(cal)
		}
	}
}

// armCalibration installs a calibration window and wires it into the
// guard's health gate.
func (t *Tenant) armCalibration(cal *cluster.Calibration) {
	t.cal = cal
	t.calGate = cal.HealthCheck(guardCoverageSlack, 0, stepsPerDay()/4)
}

// active reports whether the tenant has a full planning round left.
func (t *Tenant) active(horizon int) bool {
	return t.err == nil && t.origin+horizon <= t.series.Len()
}

// holdPlan fills the tenant's plan buffer with its previous allocation —
// the fail-safe outcome of an exhausted fallback ladder or a refused
// admission round.
func (t *Tenant) holdPlan(h int) []int {
	if cap(t.planBuf) < h {
		t.planBuf = make([]int, h)
	}
	plan := t.planBuf[:h]
	for i := range plan {
		plan[i] = t.prevAlloc
	}
	return plan
}

// planPhase runs the planning half of one tenant's round: compute the
// plan (through the warm fast path, the quarantine fallback, and any
// chaos injection wired into the forecaster) and park it in t.pending
// for the admission barrier. It writes only tenant-owned state and
// process-wide atomic counters, preserving the worker-count determinism
// contract.
func (t *Tenant) planPhase(cfg Config) {
	start := time.Now()
	origin, h := t.origin, cfg.Horizon
	if t.chaosCursor != nil {
		t.chaosCursor.Set(origin - t.trainEnd)
	}
	t.histView.Values = t.series.Values[:origin]
	hist := t.histView
	if t.sched != nil {
		// Telemetry faults corrupt a copy of the visible history; the
		// underlying trace stays pristine for grading.
		hist = chaos.CorruptTelemetry(t.histView, t.sched, origin-t.trainEnd)
	}
	planner, reason := t.planner, ""
	if t.quarantineLeft > 0 {
		// Quarantined: the backpressure breaker pinned this tenant to
		// reactive planning so it stops thrashing the pool.
		if t.reactive == nil {
			t.reactive = &scaler.ReactiveMax{Window: 6, Theta: cfg.Theta}
		}
		planner, reason = t.reactive, "quarantine"
	}
	plan, err := scaler.PlanRound(planner, hist, h, t.planBuf)
	if plan != nil {
		t.planBuf = plan
	}
	if err != nil {
		if t.guard == nil && planner == t.planner {
			t.err = fmt.Errorf("fleet: %s planning at %d: %w", t.ID, origin, err)
			return
		}
		// Even an exhausted fallback ladder holds the allocation rather
		// than taking the tenant down.
		t.holds++
		plan = t.holdPlan(h)
	}
	t.pending = plan
	t.roundPlanner = planner
	t.shedRound = 0
	t.shedReason = reason
	if t.wakeGuard != nil {
		// Park/wake hysteresis shapes the plan before admission: an idle
		// tenant's plan goes to zero (after the hysteresis clears), a
		// parked tenant's returning demand wakes it, and an open wake
		// breaker floors everything at the keep-warm count. Only
		// tenant-owned state is touched, so the parallel phase stays
		// worker-count deterministic.
		t.wakeReason = wakeAnnotation(t.wakeGuard.Shape(plan, t.idleNow(cfg)))
	}
	t.planDur = time.Since(start).Seconds()
}

// idleNow is the serverless idleness verdict for the round: the plan has
// no step above the one-node floor and the realized workload over the
// trailing horizon never rose above the idle threshold. Judging genuine
// history (not the chaos-corrupted view) keeps telemetry faults from
// spuriously parking a loaded tenant.
func (t *Tenant) idleNow(cfg Config) bool {
	for _, v := range t.pending {
		if v > 1 {
			return false
		}
	}
	lo := t.origin - cfg.Horizon
	if lo < 0 {
		lo = 0
	}
	for i := lo; i < t.origin; i++ {
		if t.series.At(i) > cfg.IdleEps {
			return false
		}
	}
	return true
}

// wakeAnnotation maps a wake transition to the decision-record reason
// narrated by -explain; an ordinary active round stays unannotated.
func wakeAnnotation(tr scaler.WakeTransition) string {
	switch tr {
	case scaler.WakePark:
		return "parked"
	case scaler.WakeKeepWarm:
		return "keep-warm"
	case scaler.WakeWake:
		return "wake"
	case scaler.WakeHold:
		return "wake-hold"
	}
	return ""
}

// applyPhase runs the post-admission half of one tenant's round: record
// the tenant-labelled decision (annotated with the admission outcome),
// apply each admitted step through the breaker and any control-plane
// chaos, grade violations and calibration, and advance the rolling
// allocation hash and cost.
func (t *Tenant) applyPhase(cfg Config) {
	start := time.Now()
	origin, h := t.origin, cfg.Horizon
	plan := t.pending
	reason := t.shedReason
	if reason == "" {
		reason = t.wakeReason
	}
	scaler.RecordDecisionAdmitted(t.roundPlanner, t.ID, origin, t.series.TimeAt(origin),
		t.prevAlloc, plan, t.shedRound, reason)
	var fan *forecast.QuantileForecast
	if t.fans != nil && t.roundPlanner == t.planner {
		// Quarantined rounds plan reactively; the predictive fan is stale
		// then, so calibration only observes rounds its forecaster drove.
		fan = t.fans.LastFan()
	}
	if fan != nil && t.cal == nil {
		if cal, err := cluster.NewCalibration(fan.Levels, stepsPerDay()); err == nil {
			t.armCalibration(cal)
		}
	}
	for i, alloc := range plan {
		step := origin - t.trainEnd + i
		if t.chaosCursor != nil {
			t.chaosCursor.Set(step)
		}
		if err := t.applier.ScaleTo(alloc); err != nil {
			t.holds++
		}
		if t.sched != nil {
			if kills := t.sched.KillsAt(step); kills > 0 {
				chaos.CountInjected(chaos.NodeKill)
				if t.alloc -= kills; t.alloc < 0 {
					t.alloc = 0
				}
			}
		}
		actual := t.alloc
		w := t.series.At(origin + i)
		if t.sless != nil {
			t.serverlessStep(cfg, step, actual, w)
		} else {
			eff := actual
			if eff < 1 {
				eff = 1
			}
			if w/float64(eff) > cfg.Theta {
				t.violations++
				t.violCounter.Inc()
			}
			t.cost += int64(actual)
			t.allocHash = (t.allocHash ^ uint64(uint(actual))) * fnvPrime
		}
		t.steps++
		t.cursor++
		if fan != nil && t.cal != nil && i < fan.Horizon() {
			if cerr := t.cal.Observe(w, fan.Step(i)); cerr != nil {
				t.err = fmt.Errorf("fleet: %s calibration at %d: %w", t.ID, origin+i, cerr)
				return
			}
		}
	}
	if fan != nil && t.cal != nil {
		t.cal.Publish()
	}
	t.prevAlloc = t.alloc
	t.origin = origin + h
	t.roundCounter.Inc()
	t.wakeReason = ""
	d := t.planDur + time.Since(start).Seconds()
	t.dur.Observe(d)
	fleetPlanSeconds.Observe(d)
}

// serverlessStep feeds one admitted step through the tenant's plant: the
// scalar allocation becomes the demanded capacity in base-node units,
// the plant resolves it to a joint (count x size) decision under any
// scheduled wake faults, and the outcome — not the requested plan — is
// what gets graded, costed, hashed and fed back into the wake breaker.
// A parked or still-cold step has zero capacity; it only counts as a
// violation when the workload was genuinely above the idle threshold.
func (t *Tenant) serverlessStep(cfg Config, step, demand int, w float64) {
	var f cluster.WakeFault
	if t.sched != nil {
		f.StallSeconds = t.sched.WakeStallAt(step)
		f.Fail = t.sched.WakeFailAt(step)
		f.Partial = t.sched.PartialProvisionAt(step)
	}
	out := t.sless.Step(demand, f)
	if out.Stalled {
		chaos.CountInjected(chaos.WakeStall)
	}
	if out.PartialApplied {
		chaos.CountInjected(chaos.PartialProvision)
	}
	if out.WakeStarted {
		t.wakeStarts.Inc()
	}
	if out.WakeFailed {
		chaos.CountInjected(chaos.WakeFail)
		t.wakeFailures.Inc()
		t.wakeGuard.OnWakeResult(false)
	}
	if out.WakeCompleted {
		t.wakeGuard.OnWakeResult(true)
		t.wakeLat.Observe(out.WakeLatencySeconds)
		t.wakeLatHist.Observe(out.WakeLatencySeconds)
	}
	if out.Parked {
		t.parkedSteps++
	}
	violated := w > cfg.IdleEps
	if out.CapacityUnits > 0 {
		violated = w/out.CapacityUnits > cfg.Theta
	}
	if violated {
		t.violations++
		t.violCounter.Inc()
	}
	t.cost += int64(out.CostUnits)
	t.allocHash = (t.allocHash ^ uint64(uint(out.Nodes*16+out.Size))) * fnvPrime
}

// admit is the shared-capacity admission barrier between the plan and
// apply phases: with a pool configured it clips every pending plan so
// the fleet's aggregate allocation never exceeds the budget at any step,
// shedding best-effort tenants first (proportional fair share inside the
// partially-shed class), trips the per-tenant backpressure breaker into
// quarantine after repeated clipping, and journals each shed round. Runs
// sequentially in tenant index order, so every outcome is deterministic.
// Pool-level chaos (capacity collapse, admission-RPC rejects) anchors to
// the first active tenant's replay position.
func (c *Controller) admit(active []*Tenant) {
	cfg := c.cfg
	if cfg.PoolNodes <= 0 || len(active) == 0 {
		return
	}
	anchor := active[0].origin - active[0].trainEnd
	h := cfg.Horizon
	if c.chaosSched.AdmissionRejectAt(anchor) {
		// The admission RPC is down. Fail safe: hold every tenant at its
		// last admitted allocation instead of racing unadmitted plans past
		// the pool. The round carries the annotation but does not count
		// toward shed or quarantine accounting — the fault is the control
		// plane's, not the tenants'.
		chaos.CountInjected(chaos.AdmissionReject)
		c.admissionRejects++
		fleetAdmissionRejects.Inc()
		for _, t := range active {
			for j := range t.pending {
				t.pending[j] = t.prevAlloc
			}
			t.shedReason = "admission-reject"
		}
		return
	}
	n := len(active)
	if cap(c.classBuf) < n {
		c.classBuf = make([]PriorityClass, n)
	}
	classes := c.classBuf[:n]
	for i, t := range active {
		classes[i] = t.Class
	}
	if cap(c.demandBuf) < n {
		c.demandBuf = make([]int, n)
	}
	demands := c.demandBuf[:n]
	collapsed := false
	for j := 0; j < h; j++ {
		capacity := cfg.PoolNodes
		if f := c.chaosSched.PoolFactorAt(anchor + j); f < 1 {
			collapsed = true
			capacity = int(float64(capacity) * f)
		}
		for i, t := range active {
			demands[i] = t.pending[j]
		}
		c.admitBuf = admitStep(demands, classes, capacity, c.admitBuf)
		admitted := 0
		for i, t := range active {
			admitted += c.admitBuf[i]
			if clip := t.pending[j] - c.admitBuf[i]; clip > 0 {
				t.pending[j] = c.admitBuf[i]
				t.shedRound += clip
			}
		}
		if j == 0 && capacity > 0 {
			util := float64(admitted) / float64(capacity)
			fleetPoolUtilization.Set(util)
			if util > c.peakUtil {
				c.peakUtil = util
			}
		}
	}
	if collapsed {
		chaos.CountInjected(chaos.PoolCollapse)
	}
	clipped, shedNodes := 0, int64(0)
	for _, t := range active {
		if t.shedRound > 0 {
			clipped++
			shedNodes += int64(t.shedRound)
			t.clippedRounds++
			t.shedTotal += int64(t.shedRound)
			if t.shedReason == "" {
				t.shedReason = "pool-exhausted"
			}
			if t.quarantineLeft == 0 {
				t.flap++
				if cfg.QuarantineAfter > 0 && t.flap >= cfg.QuarantineAfter {
					rounds := cfg.QuarantineRounds
					if rounds <= 0 {
						rounds = 8
					}
					t.quarantineLeft = rounds
					t.quarantines++
					fleetQuarantinesTotal.Inc()
					obs.DefaultJournal.RecordTenantAt(t.now(), t.ID, "quarantine",
						fmt.Sprintf("quarantined to reactive planning for %d rounds after %d consecutive clipped rounds", rounds, t.flap),
						map[string]float64{"rounds": float64(rounds), "flap": float64(t.flap)})
				}
			}
		} else if t.quarantineLeft == 0 {
			t.flap = 0
		}
	}
	if clipped > 0 {
		c.shedRounds++
		fleetShedRounds.Inc()
		fleetAdmissionClips.Add(float64(clipped))
		fleetShedNodesTotal.Add(float64(shedNodes))
		obs.DefaultJournal.RecordTenantAt(active[0].now(), "", "admission-shed",
			fmt.Sprintf("pool admission clipped %d tenants by %d nodes this round", clipped, shedNodes),
			map[string]float64{"clipped": float64(clipped), "shed_nodes": float64(shedNodes)})
	}
	quarantined := 0
	for _, t := range active {
		if t.quarantineLeft > 0 && t.shedReason == "quarantine" {
			// This round was planned under quarantine; count it down.
			t.quarantineLeft--
			if t.quarantineLeft == 0 {
				t.flap = 0
				obs.DefaultJournal.RecordTenantAt(t.now(), t.ID, "unquarantine",
					"quarantine expired; re-entering predictive planning", nil)
			}
		}
		if t.quarantineLeft > 0 {
			quarantined++
		}
	}
	fleetQuarantinedGauge.Set(float64(quarantined))
}

// injectWakeStorm applies a scheduled correlated flash crowd: every
// parked tenant is forced awake and its pending plan floored at one
// node, so the whole parked population cold-starts simultaneously —
// stressing wake latency and pool admission in the same round. Runs
// sequentially in index order between the plan phase and the admission
// barrier; a fleet without the serverless model never parks, so the
// storm window has nothing to strike and the round is untouched.
func (c *Controller) injectWakeStorm(active []*Tenant) {
	if !c.cfg.Serverless || c.chaosSched == nil || len(active) == 0 {
		return
	}
	anchor := active[0].origin - active[0].trainEnd
	if !c.chaosSched.WakeStormAt(anchor) {
		return
	}
	chaos.CountInjected(chaos.WakeStorm)
	forced := 0
	for _, t := range active {
		if t.wakeGuard == nil || !t.wakeGuard.ForceWake() {
			continue
		}
		forced++
		t.wakeReason = "wake-storm"
		for j := range t.pending {
			if t.pending[j] < 1 {
				t.pending[j] = 1
			}
		}
	}
	fleetWakeStorms.Inc()
	obs.DefaultJournal.RecordTenantAt(active[0].now(), "", "wake-storm",
		fmt.Sprintf("wake storm forced %d parked tenant(s) awake simultaneously", forced),
		map[string]float64{"forced": float64(forced)})
}

// Run drives the fleet to completion (or cfg.MaxRounds, or context
// cancellation), checkpointing every CheckpointInterval rounds and once
// more at exit. Each round runs a parallel plan phase, the sequential
// admission barrier, and a parallel apply phase; per-tenant decisions
// are bit-identical for any worker count.
func (c *Controller) Run(ctx context.Context) (*Report, error) {
	cfg := c.cfg
	active := make([]*Tenant, 0, len(c.tenants))
	for {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		if cfg.MaxRounds > 0 && c.rounds >= cfg.MaxRounds {
			break
		}
		active = active[:0]
		for _, t := range c.tenants {
			if t.active(cfg.Horizon) {
				active = append(active, t)
			}
		}
		if len(active) == 0 {
			break
		}
		parallel.ForEachWorkerSpan("fleet-plan", cfg.Workers, len(active), func(_, i int) {
			active[i].planPhase(cfg)
		})
		for _, t := range c.tenants {
			if t.err != nil {
				return nil, t.err
			}
		}
		// The admission barrier is sequential and index-ordered: clipping,
		// shedding, quarantine transitions and their journal entries are a
		// pure function of the round's pending plans, so the outcome is
		// identical for any worker count. Wake storms fire first so the
		// flash crowd's forced wakes contend for pool admission the same
		// round they strike.
		c.injectWakeStorm(active)
		c.admit(active)
		parallel.ForEachWorkerSpan("fleet-apply", cfg.Workers, len(active), func(_, i int) {
			active[i].applyPhase(cfg)
		})
		for _, t := range c.tenants {
			if t.err != nil {
				return nil, t.err
			}
		}
		// Health-plane observation happens after the round barrier, over
		// per-tenant deltas read in index order — a pure function of the
		// round's outcome, so heavy-hitter lists and alert firing ticks
		// are worker-count independent.
		var steps, viol int64
		parked := 0
		for i, t := range c.tenants {
			steps += int64(t.steps)
			viol += int64(t.violations)
			if dv := t.violations - c.lastTenantViol[i]; dv > 0 {
				c.worstViol.Observe(t.ID, float64(dv))
			}
			if dc := t.cost - c.lastTenantCost[i]; dc > 0 {
				c.worstCost.Observe(t.ID, float64(dc))
			}
			c.lastTenantViol[i], c.lastTenantCost[i] = t.violations, t.cost
			if t.sless != nil && t.sless.Parked() {
				parked++
			}
		}
		if cfg.Serverless {
			fleetParkedGauge.Set(float64(parked))
		}
		if c.slo != nil {
			c.slo.ObserveAt(c.tenants[0].now(),
				uint64(viol-c.lastViol), uint64(steps-c.lastSteps))
			c.lastSteps, c.lastViol = steps, viol
		}
		c.rounds++
		fleetRoundsTotal.Inc()
		if cfg.StateDir != "" && c.rounds%cfg.CheckpointInterval == 0 {
			c.checkpoint()
		}
	}
	if cfg.StateDir != "" && c.rounds != c.lastCkpt {
		c.checkpoint()
	}
	return c.report(), nil
}

// checkpoint snapshots every tenant into its own namespace, batched
// across the worker pool (each write touches only that tenant's
// directory). A failed write logs through the journal and keeps flying.
// The fleet SLO tracker is encoded once up front and rides tenant 0's
// snapshot.
func (c *Controller) checkpoint() {
	var sloBlob []byte
	if c.slo != nil {
		var b bytes.Buffer
		if err := c.slo.Save(&b); err == nil {
			sloBlob = b.Bytes()
		}
	}
	parallel.ForEachWorkerSpan("fleet-checkpoint", c.cfg.Workers, len(c.tenants), func(_, i int) {
		var blob []byte
		if i == 0 {
			blob = sloBlob
		}
		c.tenants[i].writeCheckpoint(blob)
	})
	c.lastCkpt = c.rounds
}

// writeCheckpoint snapshots one tenant's full control-loop state; slo,
// when non-nil, is the fleet SLO tracker blob (tenant 0 only).
func (t *Tenant) writeCheckpoint(slo []byte) {
	if t.mgr == nil {
		return
	}
	st := &persist.State{
		SavedAt:     t.now(),
		Fingerprint: t.fp,
		Origin:      t.origin,
		PrevAlloc:   t.prevAlloc,
		Steps:       t.steps,
		Violations:  t.violations,
		Holds:       t.holds,
		Rho:         t.rho,
	}
	blob := func(save func(io.Writer) error) []byte {
		var b bytes.Buffer
		if err := save(&b); err != nil {
			return nil
		}
		return b.Bytes()
	}
	if t.snapper != nil {
		st.ForecasterKind = t.forecasterKind
		if st.Forecaster = blob(t.snapper.Save); st.Forecaster == nil {
			return // a snapshot without the model would warm-start wrong
		}
	}
	if t.cal != nil {
		st.Calibration = blob(t.cal.Save)
	}
	if t.guard != nil {
		st.Guard = blob(t.guard.Save)
	}
	st.Breaker = blob(t.applier.Breaker.Save)
	st.SLO = slo
	ex := loopExtra{
		AllocHash: t.allocHash, Cost: t.cost,
		ShedNodes: t.shedTotal, ClippedRounds: t.clippedRounds,
		Flap: t.flap, QuarantineLeft: t.quarantineLeft, Quarantines: t.quarantines,
		ParkedSteps: t.parkedSteps,
	}
	if t.wakeGuard != nil {
		ex.Wake = blob(t.wakeGuard.Save)
	}
	if t.sless != nil {
		ex.Plant = blob(t.sless.Save)
	}
	if t.wakeLat != nil {
		ex.WakeLat = blob(t.wakeLat.Save)
	}
	var extra bytes.Buffer
	if err := gob.NewEncoder(&extra).Encode(ex); err == nil {
		st.Extra = extra.Bytes()
	}
	if _, err := t.mgr.Write(st); err != nil {
		obs.DefaultJournal.RecordTenantAt(t.now(), t.ID, "checkpoint-error",
			fmt.Sprintf("checkpoint at origin %d failed: %v", t.origin, err), nil)
	}
}
