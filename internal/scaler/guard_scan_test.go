package scaler_test

import (
	"math"
	"reflect"
	"testing"
	"time"

	"robustscale/internal/chaos"
	"robustscale/internal/forecast"
	"robustscale/internal/obs"
	"robustscale/internal/scaler"
	"robustscale/internal/timeseries"
)

// tailSpy forecasts a fan around the trailing mean of the history it is
// handed and records that history, so a test sees exactly what the
// guard's telemetry scan passed to the inner strategy.
type tailSpy struct{ seen *timeseries.Series }

func (s *tailSpy) Name() string                 { return "tail-spy" }
func (s *tailSpy) Fit(*timeseries.Series) error { return nil }
func (s *tailSpy) Predict(hist *timeseries.Series, h int) ([]float64, error) {
	f, err := s.PredictQuantiles(hist, h, []float64{0.5})
	if err != nil {
		return nil, err
	}
	return f.Mean, nil
}

func (s *tailSpy) PredictQuantiles(hist *timeseries.Series, h int, levels []float64) (*forecast.QuantileForecast, error) {
	s.seen = hist
	n := hist.Len()
	mean := 0.0
	for i := n - 6; i < n; i++ {
		mean += hist.At(i) / 6
	}
	f := &forecast.QuantileForecast{Levels: levels, Values: make([][]float64, h), Mean: make([]float64, h)}
	for t := range f.Values {
		f.Values[t] = make([]float64, len(levels))
		for i, tau := range levels {
			f.Values[t][i] = mean * (1 + 0.3*(tau-0.5))
		}
		f.Mean[t] = mean
	}
	return f, nil
}

func newSpyGuard() (*scaler.Guard, *tailSpy) {
	spy := &tailSpy{}
	return &scaler.Guard{
		Inner:  &scaler.Robust{Forecaster: spy, Tau: 0.9, Theta: 10},
		Config: scaler.GuardConfig{Theta: 10, Tau: 0.9},
	}, spy
}

// scanOutcome is everything the telemetry scan can influence: the plan,
// whether the inner strategy got the caller's series or a repaired copy,
// the values it saw, and the repair counter's delta.
type scanOutcome struct {
	plan     []int
	samePtr  bool
	values   []float64
	repaired float64
}

var telemetryRepairs = obs.Default.Counter("robustscale_guard_telemetry_repairs_total", "")

func planOutcome(t *testing.T, g *scaler.Guard, spy *tailSpy, hist *timeseries.Series) scanOutcome {
	t.Helper()
	before := telemetryRepairs.Value()
	plan, err := g.Plan(hist, 3)
	if err != nil {
		t.Fatal(err)
	}
	return scanOutcome{
		plan:     plan,
		samePtr:  spy.seen == hist,
		values:   append([]float64(nil), spy.seen.Values...),
		repaired: telemetryRepairs.Value() - before,
	}
}

// TestGuardIncrementalScanMatchesFresh drives one long-lived guard
// through the histories a control loop can hand it — append-extensions
// of a live backing array, in-place tail edits, clones, chaos-corrupted
// copies, shrunk series and a shifted epoch — and requires every round
// to match a freshly built guard, which always scans the whole history.
func TestGuardIncrementalScanMatchesFresh(t *testing.T) {
	backing := make([]float64, 400)
	for i := range backing {
		backing[i] = 50 + 30*math.Sin(float64(i)/9)
	}
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	view := func(n int) *timeseries.Series {
		return &timeseries.Series{Name: "live", Start: start, Step: timeseries.DefaultStep, Values: backing[:n]}
	}
	inc, incSpy := newSpyGuard()
	check := func(name string, hist *timeseries.Series) {
		t.Helper()
		got := planOutcome(t, inc, incSpy, hist)
		fresh, freshSpy := newSpyGuard()
		want := planOutcome(t, fresh, freshSpy, hist)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: incremental guard %+v, fresh guard %+v", name, got, want)
		}
	}

	check("first round", view(300))
	check("append finite suffix", view(320))

	backing[330] = math.NaN()
	check("append NaN suffix", view(335))
	backing[330] = 40
	check("NaN suffix repaired upstream", view(340))

	backing[339] = 77
	check("in-place finite tail change", view(345))
	backing[344] = math.Inf(1)
	check("in-place non-finite tail change", view(350))
	backing[344] = 61
	check("append after tail edits", view(355))

	// Each of these hides a NaN inside the prefix the guard last proved
	// finite; only a full rescan finds it.
	backing[150] = math.NaN()
	check("shorter history", view(200))
	shifted := view(360)
	shifted.Start = shifted.Start.Add(shifted.Step)
	check("changed Start", shifted)
	backing[150] = 45
	check("clean clone", view(360).Clone())
	clone := view(360).Clone()
	clone.Values[100] = math.NaN()
	check("clone with NaN inside the proven prefix", clone)

	sched, err := chaos.Profile{
		Name: "telemetry", Seed: 11, Steps: 40,
		Rates: map[chaos.Class]float64{
			chaos.TelemetryDropout: 0.3, chaos.TelemetryStale: 0.2, chaos.TelemetryDuplicate: 0.2,
		},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for step := 0; step < 40; step++ {
		live := view(360 + step)
		hist := chaos.CorruptTelemetry(live, sched, step)
		if hist != live {
			corrupted++
		}
		check("chaos-corrupted copy", hist)
	}
	if corrupted == 0 || corrupted == 40 {
		t.Fatalf("chaos schedule corrupted %d of 40 rounds; want a mix of live and corrupted histories", corrupted)
	}
}
