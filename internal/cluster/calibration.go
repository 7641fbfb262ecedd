package cluster

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"robustscale/internal/obs"
)

// calibrationSkipped counts observations the tracker refused: one NaN
// actual would otherwise poison every rolling sum in the window for a
// full window length.
var calibrationSkipped = obs.Default.Counter(
	"robustscale_forecast_calibration_skipped_total",
	"Calibration observations skipped because the actual or a quantile value was not finite.")

// Calibration grades quantile forecasts against realized workloads online
// over a rolling window, the monitoring loop the paper argues production
// autoscalers need: if the 0.9-quantile band covers far less than 90% of
// realized workloads, the robust strategy's safety margin has silently
// eroded and retraining is due.
//
// Every Observe updates, in O(levels) time:
//
//   - per-level observed coverage (fraction of actuals at or below the
//     level's forecast), and
//   - the rolling mean weighted quantile loss.
//
// ObserveAll feeds a round's steps under one lock. Publish exports them
// as robustscale_forecast_coverage{tau=...} alongside the
// observed-minus-nominal error gauge, and as
// robustscale_forecast_rolling_wql. The gauges are process-wide, so a
// single-tenant loop publishes after every Observe while a fleet
// observes and publishes once per tenant-round and the gauges show the
// last writer.
//
// Calibration is safe for concurrent use, though the control loop is its
// only writer in practice.
type Calibration struct {
	levels []float64
	window int

	mu        sync.Mutex
	actuals   []float64 // ring of realized workloads
	preds     []float64 // ring of quantile rows, len(levels) apart, aligned with levels
	next      int
	count     int
	covered   []int     // per level: covered steps currently in window
	pinball   []float64 // per level: pinball-loss sum over window
	actualSum float64
	skipped   uint64 // non-finite observations refused

	coverage []*obs.Gauge
	covError []*obs.Gauge
	wql      *obs.Gauge
	samples  *obs.Gauge
}

// CalibrationSnapshot is a point-in-time view of the rolling window.
type CalibrationSnapshot struct {
	// Levels are the nominal quantile levels.
	Levels []float64
	// Coverage[i] is the observed coverage of Levels[i].
	Coverage []float64
	// WQL is the rolling mean weighted quantile loss.
	WQL float64
	// Steps is how many observations the window currently holds.
	Steps int
	// Skipped is how many observations were refused as non-finite.
	Skipped uint64
}

// NewCalibration builds a tracker for the given quantile levels over a
// rolling window of that many steps, registering its gauges on
// obs.Default.
func NewCalibration(levels []float64, window int) (*Calibration, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("cluster: calibration needs at least one quantile level")
	}
	if window < 1 {
		return nil, fmt.Errorf("cluster: non-positive calibration window %d", window)
	}
	for _, tau := range levels {
		if tau <= 0 || tau >= 1 {
			return nil, fmt.Errorf("cluster: calibration level %v outside (0, 1)", tau)
		}
	}
	c := &Calibration{
		levels:  append([]float64(nil), levels...),
		window:  window,
		actuals: make([]float64, window),
		preds:   make([]float64, window*len(levels)),
		covered: make([]int, len(levels)),
		pinball: make([]float64, len(levels)),
	}
	covVec := obs.Default.GaugeVec(
		"robustscale_forecast_coverage",
		"Observed rolling coverage of each quantile level; calibrated forecasts match the tau label.",
		"tau")
	errVec := obs.Default.GaugeVec(
		"robustscale_forecast_coverage_error",
		"Observed minus nominal rolling coverage, by quantile level.",
		"tau")
	c.coverage = make([]*obs.Gauge, len(levels))
	c.covError = make([]*obs.Gauge, len(levels))
	for i, tau := range levels {
		label := strconv.FormatFloat(tau, 'g', -1, 64)
		c.coverage[i] = covVec.With(label)
		c.covError[i] = errVec.With(label)
	}
	c.wql = obs.Default.Gauge(
		"robustscale_forecast_rolling_wql",
		"Rolling mean weighted quantile loss over the calibration window.")
	c.samples = obs.Default.Gauge(
		"robustscale_forecast_calibration_samples",
		"Steps currently held in the forecast-calibration window.")
	return c, nil
}

// Levels returns the nominal quantile levels, in order.
func (c *Calibration) Levels() []float64 { return append([]float64(nil), c.levels...) }

// Observe feeds one realized workload and the quantile row that was
// forecast for its step (values aligned with the tracker's levels) into
// the window; Publish exports the result. A non-finite actual or quantile
// value is skipped and counted rather than admitted: a single NaN in a
// rolling sum would poison coverage and wQL for a full window length.
func (c *Calibration) Observe(actual float64, quantiles []float64) error {
	if len(quantiles) != len(c.levels) {
		return fmt.Errorf("cluster: %d quantile values for %d calibration levels", len(quantiles), len(c.levels))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observe(actual, quantiles)
	return nil
}

// ObserveAll feeds actuals[i] with rows[i] for every i, exactly as that
// many Observe calls would, under one lock. Every row's length is
// checked first, so an error leaves the window untouched.
func (c *Calibration) ObserveAll(actuals []float64, rows [][]float64) error {
	if len(actuals) != len(rows) {
		return fmt.Errorf("cluster: %d actuals for %d quantile rows", len(actuals), len(rows))
	}
	for i, row := range rows {
		if len(row) != len(c.levels) {
			return fmt.Errorf("cluster: row %d has %d quantile values for %d calibration levels", i, len(row), len(c.levels))
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, row := range rows {
		c.observe(actuals[i], row)
	}
	return nil
}

// observe admits one step whose row length was checked; callers hold
// the lock.
func (c *Calibration) observe(actual float64, quantiles []float64) {
	finite := !math.IsNaN(actual) && !math.IsInf(actual, 0)
	for _, q := range quantiles {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			finite = false
			break
		}
	}
	if !finite {
		c.skipped++
		calibrationSkipped.Inc()
		return
	}

	row := c.preds[c.next*len(c.levels) : (c.next+1)*len(c.levels)]
	if c.count == c.window {
		// Evict the oldest observation from the running sums.
		old := c.actuals[c.next]
		c.actualSum -= old
		for i := range c.levels {
			if row[i] >= old {
				c.covered[i]--
			}
			c.pinball[i] -= pinballLoss(c.levels[i], old, row[i])
		}
	} else {
		c.count++
	}
	c.actuals[c.next] = actual
	copy(row, quantiles)
	c.actualSum += actual
	for i, tau := range c.levels {
		if quantiles[i] >= actual {
			c.covered[i]++
		}
		c.pinball[i] += pinballLoss(tau, actual, quantiles[i])
	}
	c.next = (c.next + 1) % c.window
}

// Publish exports the window's coverage, coverage error, rolling wQL and
// sample count to the gauges. It leaves them untouched while the window
// is empty.
func (c *Calibration) Publish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count == 0 {
		return
	}
	for i, tau := range c.levels {
		cov := c.coverageOf(i)
		c.coverage[i].Set(cov)
		c.covError[i].Set(cov - tau)
	}
	c.wql.Set(c.rollingWQL())
	c.samples.Set(float64(c.count))
}

// coverageOf is the observed coverage of level i, 0 for an empty window;
// callers hold the lock.
func (c *Calibration) coverageOf(i int) float64 {
	if c.count == 0 {
		return 0
	}
	return float64(c.covered[i]) / float64(c.count)
}

// rollingWQL computes the mean over levels of 2*QL_tau/sum(actuals) for
// the window; callers hold the lock.
func (c *Calibration) rollingWQL() float64 {
	if c.actualSum <= 0 {
		return 0
	}
	total := 0.0
	for i := range c.levels {
		total += 2 * c.pinball[i] / c.actualSum
	}
	return total / float64(len(c.levels))
}

// Snapshot returns the current rolling statistics.
func (c *Calibration) Snapshot() CalibrationSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := CalibrationSnapshot{
		Levels:   append([]float64(nil), c.levels...),
		Coverage: make([]float64, len(c.levels)),
		WQL:      c.rollingWQL(),
		Steps:    c.count,
		Skipped:  c.skipped,
	}
	for i := range c.levels {
		snap.Coverage[i] = c.coverageOf(i)
	}
	return snap
}

// HealthCheck returns a hook for scaler.Guard's Health field: it reports
// unhealthy when any level's observed rolling coverage falls more than
// slack below its nominal level, or (when maxWQL > 0) the rolling wQL
// exceeds maxWQL. The verdict withholds judgment — stays healthy — until
// the window holds at least minSteps observations. A healthy verdict
// allocates nothing.
func (c *Calibration) HealthCheck(slack, maxWQL float64, minSteps int) func() (bool, string) {
	return func() (bool, string) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.count < minSteps {
			return true, ""
		}
		for i, tau := range c.levels {
			if cov := c.coverageOf(i); cov < tau-slack {
				return false, fmt.Sprintf("rolling coverage of q%g is %.3f, below %.3f (nominal - slack)",
					tau, cov, tau-slack)
			}
		}
		if maxWQL > 0 {
			if wql := c.rollingWQL(); wql > maxWQL {
				return false, fmt.Sprintf("rolling wQL %.4f above limit %.4f", wql, maxWQL)
			}
		}
		return true, ""
	}
}

// SampleShrinker returns a hook for a Monte-Carlo forecaster's sample
// budget (forecast.DeepAR.SetSampleBudget): while every observed rolling
// coverage sits at least slack above its nominal level — the forecast
// bands are demonstrably conservative — the per-round Monte-Carlo path
// count shrinks to frac of the full budget, trading sampling noise the
// calibration window shows is affordable for planning latency. The hook
// returns the full budget until the window holds minSteps observations
// and whenever any level's coverage margin dips below slack (the nominal
// target is capped at 1 so extreme levels can still qualify).
//
// Shrinking deliberately breaks warm/cold bit-identity — fewer paths is a
// different estimate — so it is opt-in and never engages on the default
// fast path.
func (c *Calibration) SampleShrinker(slack float64, minSteps int, frac float64) func(full int) int {
	if frac <= 0 || frac >= 1 {
		frac = 0.25
	}
	return func(full int) int {
		snap := c.Snapshot()
		if snap.Steps < minSteps {
			return full
		}
		for i, tau := range snap.Levels {
			want := tau + slack
			if want > 1 {
				want = 1
			}
			if snap.Coverage[i] < want {
				return full
			}
		}
		reduced := int(math.Ceil(float64(full) * frac))
		if reduced < 2 {
			reduced = 2
		}
		if reduced > full {
			reduced = full
		}
		return reduced
	}
}

// pinballLoss is the quantile (pinball) loss rho_tau of prediction yhat
// against actual y.
func pinballLoss(tau, y, yhat float64) float64 {
	u := y - yhat
	if u < 0 {
		return (tau - 1) * u
	}
	return tau * u
}
