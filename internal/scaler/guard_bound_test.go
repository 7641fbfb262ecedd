package scaler_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"robustscale/internal/chaos"
	"robustscale/internal/forecast"
	"robustscale/internal/scaler"
	"robustscale/internal/timeseries"
)

// blowupInner plans a fan of 1e300 every round. The guard clamps every
// entry to its sanity bound, so the repaired fan reads the bound back
// bit-exactly.
type blowupInner struct{ fan *forecast.QuantileForecast }

func (b *blowupInner) Name() string { return "blowup" }

func (b *blowupInner) Plan(_ *timeseries.Series, h int) ([]int, error) {
	b.fan = &forecast.QuantileForecast{
		Levels: []float64{0.5, 0.9},
		Values: make([][]float64, h),
		Mean:   make([]float64, h),
	}
	for t := range b.fan.Values {
		b.fan.Values[t] = []float64{1e300, 1e300}
		b.fan.Mean[t] = 1e300
	}
	return make([]int, h), nil
}

func (b *blowupInner) LastFan() *forecast.QuantileForecast { return b.fan }

const boundWindow = 48

func newBoundGuard(window int) *scaler.Guard {
	return &scaler.Guard{
		Inner:  &blowupInner{},
		Config: scaler.GuardConfig{Theta: 10, Tau: 0.9, HistoryWindow: window},
	}
}

// guardBound plans one round and returns the sanity bound the guard
// clamped the blown-up fan to.
func guardBound(t *testing.T, g *scaler.Guard, hist *timeseries.Series) float64 {
	t.Helper()
	if _, err := g.Plan(hist, 2); err != nil {
		t.Fatal(err)
	}
	fan := g.LastFan()
	if fan == nil || g.Mode() != scaler.ModeRepair {
		t.Fatalf("guard in mode %v with fan %v; want the blown-up fan clamped", g.Mode(), fan)
	}
	return fan.Values[0][0]
}

// TestGuardSanityBoundMatchesFresh drives one long-lived guard through
// random append sequences and every history a control loop can hand it
// — an expiring peak, an extension longer than the window, clones,
// chaos-corrupted copies, a shorter history, a shifted epoch, an
// in-place edit of the cached peak and a widened window — and requires its sanity bound to be
// bit-equal to a freshly built guard's, which always scans the whole
// window.
func TestGuardSanityBoundMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	backing := make([]float64, 3000)
	for i := range backing {
		backing[i] = 1 + 99*rng.Float64()
	}
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	view := func(n int) *timeseries.Series {
		return &timeseries.Series{Name: "live", Start: start, Step: timeseries.DefaultStep, Values: backing[:n]}
	}
	inc := newBoundGuard(boundWindow)
	check := func(name string, hist *timeseries.Series) {
		t.Helper()
		got := guardBound(t, inc, hist)
		want := guardBound(t, newBoundGuard(inc.Config.HistoryWindow), hist)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (len %d): incremental bound %v, fresh bound %v", name, hist.Len(), got, want)
		}
	}

	n := 60
	check("first round", view(n))
	for round := 0; round < 150; round++ {
		step := 1 + rng.Intn(12)
		n += step
		if rng.Intn(5) == 0 {
			// A spike in the appended suffix becomes the cached peak,
			// then expires from the window as later rounds append past
			// it. (An in-place raise of an already-scanned value is no
			// append-extension; neither scan is asked to see it.)
			backing[n-1-rng.Intn(step)] = 150 + 100*rng.Float64()
		}
		check("random append", view(n))
	}

	// The cached peak leaves the window one step at a time.
	backing[n] = 1000
	n++
	check("spike", view(n))
	for i := 0; i < boundWindow+2; i++ {
		n++
		check("peak expiring", view(n))
	}

	n += 8
	backing[n-5] = 900
	check("new peak", view(n))
	n += boundWindow + 10
	check("extension longer than the window", view(n))

	n += 10
	backing[n-7] = 800
	check("peak for in-place edit", view(n))
	backing[n-7] = 2
	n += 3
	check("in-place edit of the cached peak", view(n))

	check("clean clone", view(n).Clone())
	n += 4
	check("back on the live series", view(n))
	raised := view(n).Clone()
	raised.Values[n-20] = 5000
	check("clone with a raised value inside the window", raised)
	check("live series after a raised clone", view(n))

	n += 6
	backing[n-3] = 700
	check("peak near the tail", view(n))
	check("shorter history", view(n-10))
	check("extension of the shorter history", view(n+5))
	n += 5
	shifted := view(n)
	shifted.Start = shifted.Start.Add(shifted.Step)
	check("changed Start", shifted)
	n += 2
	check("append after a changed Start", view(n))

	sched, err := chaos.Profile{
		Name: "telemetry", Seed: 13, Steps: 60,
		Rates: map[chaos.Class]float64{
			chaos.TelemetryDropout: 0.2, chaos.TelemetryStale: 0.2, chaos.TelemetryDuplicate: 0.2,
		},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for step := 0; step < 60; step++ {
		n += 1 + rng.Intn(4)
		live := view(n)
		hist := chaos.CorruptTelemetry(live, sched, step)
		if hist != live {
			corrupted++
		}
		check("chaos-corrupted copy", hist)
	}
	if corrupted == 0 || corrupted == 60 {
		t.Fatalf("chaos schedule corrupted %d of 60 rounds; want a mix of live and corrupted histories", corrupted)
	}

	// Widening the window reaches back past the cached scan, to a peak
	// that had expired.
	n += 10
	backing[n-5] = 3000
	check("peak before widening", view(n))
	n += 60
	check("peak expired before widening", view(n))
	inc.Config.HistoryWindow = 4 * boundWindow
	n++
	check("widened window", view(n))
}
