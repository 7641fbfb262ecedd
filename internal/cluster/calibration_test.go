package cluster

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestCalibrationValidation(t *testing.T) {
	if _, err := NewCalibration(nil, 10); err == nil {
		t.Error("empty levels accepted")
	}
	if _, err := NewCalibration([]float64{0.5}, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewCalibration([]float64{1.5}, 10); err == nil {
		t.Error("level outside (0,1) accepted")
	}
	c, err := NewCalibration([]float64{0.5, 0.9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(1, []float64{1}); err == nil {
		t.Error("mismatched quantile row accepted")
	}
}

func TestCalibrationCoverage(t *testing.T) {
	c, err := NewCalibration([]float64{0.5, 0.9}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Four steps: the 0.9 forecast covers all four actuals, the 0.5
	// forecast covers two of four.
	steps := []struct {
		actual float64
		row    []float64 // q0.5, q0.9
	}{
		{10, []float64{12, 20}}, // both cover
		{10, []float64{8, 15}},  // only 0.9 covers
		{10, []float64{10, 11}}, // both cover (boundary inclusive)
		{10, []float64{9, 12}},  // only 0.9 covers
	}
	for _, s := range steps {
		if err := c.Observe(s.actual, s.row); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Snapshot()
	if snap.Steps != 4 {
		t.Fatalf("steps = %d, want 4", snap.Steps)
	}
	if got := snap.Coverage[0]; got != 0.5 {
		t.Errorf("coverage(0.5) = %v, want 0.5", got)
	}
	if got := snap.Coverage[1]; got != 1 {
		t.Errorf("coverage(0.9) = %v, want 1", got)
	}
}

// TestCalibrationRollingEviction pins the incremental ring bookkeeping
// against a from-scratch recomputation over the retained window.
func TestCalibrationRollingEviction(t *testing.T) {
	levels := []float64{0.5, 0.9}
	const window = 8
	c, err := NewCalibration(levels, window)
	if err != nil {
		t.Fatal(err)
	}
	var actuals []float64
	var rows [][]float64
	for i := 0; i < 25; i++ {
		actual := 100 + 13*math.Sin(float64(i))
		row := []float64{actual + float64(i%7) - 3, actual + 5}
		actuals = append(actuals, actual)
		rows = append(rows, row)
		if err := c.Observe(actual, row); err != nil {
			t.Fatal(err)
		}
	}

	// Recompute over the last `window` observations from scratch.
	tail := actuals[len(actuals)-window:]
	tailRows := rows[len(rows)-window:]
	wantCov := make([]float64, len(levels))
	wantWQL := 0.0
	actualSum := 0.0
	for _, a := range tail {
		actualSum += a
	}
	for li, tau := range levels {
		covered, ql := 0, 0.0
		for i, a := range tail {
			if tailRows[i][li] >= a {
				covered++
			}
			ql += pinballLoss(tau, a, tailRows[i][li])
		}
		wantCov[li] = float64(covered) / window
		wantWQL += 2 * ql / actualSum
	}
	wantWQL /= float64(len(levels))

	snap := c.Snapshot()
	if snap.Steps != window {
		t.Fatalf("steps = %d, want %d", snap.Steps, window)
	}
	for li := range levels {
		if math.Abs(snap.Coverage[li]-wantCov[li]) > 1e-12 {
			t.Errorf("coverage[%d] = %v, want %v", li, snap.Coverage[li], wantCov[li])
		}
	}
	if math.Abs(snap.WQL-wantWQL) > 1e-9 {
		t.Errorf("rolling wQL = %v, want %v", snap.WQL, wantWQL)
	}
}

// TestCalibrationPublishMatchesSnapshot replays the daemon's call order —
// Observe then Publish for every step, skipped non-finite samples and
// window eviction included — and requires the four exported gauges to
// equal Snapshot after each step. Observe alone must leave them alone.
func TestCalibrationPublishMatchesSnapshot(t *testing.T) {
	levels := []float64{0.5, 0.9}
	c, err := NewCalibration(levels, 4)
	if err != nil {
		t.Fatal(err)
	}
	const sentinel = -42
	for step := 0; step < 12; step++ {
		actual := 10 + float64(step%5)
		row := []float64{11 - float64(step%3), 14}
		if step == 5 {
			actual = math.NaN()
		}
		for i := range levels {
			c.coverage[i].Set(sentinel)
		}
		if err := c.Observe(actual, row); err != nil {
			t.Fatal(err)
		}
		if got := c.coverage[0].Value(); got != sentinel {
			t.Fatalf("step %d: Observe wrote the coverage gauge (%v)", step, got)
		}
		c.Publish()
		snap := c.Snapshot()
		for i, tau := range levels {
			if got := c.coverage[i].Value(); got != snap.Coverage[i] {
				t.Errorf("step %d: coverage{%g} gauge %v, snapshot %v", step, tau, got, snap.Coverage[i])
			}
			if got, want := c.covError[i].Value(), snap.Coverage[i]-tau; got != want {
				t.Errorf("step %d: coverage_error{%g} gauge %v, snapshot %v", step, tau, got, want)
			}
		}
		if got := c.wql.Value(); got != snap.WQL {
			t.Errorf("step %d: rolling_wql gauge %v, snapshot %v", step, got, snap.WQL)
		}
		if got := c.samples.Value(); got != float64(snap.Steps) {
			t.Errorf("step %d: calibration_samples gauge %v, snapshot %d", step, got, snap.Steps)
		}
	}
}

// TestCalibrationHealthCheckAllocFree pins the per-round cost of the
// guard's health gate: a healthy verdict allocates nothing.
func TestCalibrationHealthCheckAllocFree(t *testing.T) {
	c, err := NewCalibration([]float64{0.5, 0.9}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 8; step++ {
		if err := c.Observe(10, []float64{12, 20}); err != nil {
			t.Fatal(err)
		}
	}
	check := c.HealthCheck(0.1, 1, 4)
	if ok, why := check(); !ok {
		t.Fatalf("healthy window judged unhealthy: %s", why)
	}
	if allocs := testing.AllocsPerRun(100, func() { check() }); allocs != 0 {
		t.Errorf("healthy HealthCheck verdict made %v allocations, want 0", allocs)
	}
}

// calibrationImage is everything a window exposes: its snapshot
// (coverage, wQL, steps, skipped) and its checkpoint bytes.
func calibrationImage(t *testing.T, c *Calibration) (CalibrationSnapshot, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return c.Snapshot(), buf.Bytes()
}

// TestCalibrationObserveAllMatchesObserve feeds the same rounds — some
// with a NaN actual, a NaN or an infinite quantile — through ObserveAll
// and through an Observe loop, across window wrap-around, and requires
// identical snapshots, skipped counts and Save bytes after every round.
func TestCalibrationObserveAllMatchesObserve(t *testing.T) {
	levels := []float64{0.1, 0.5, 0.9}
	all, err := NewCalibration(levels, 7)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := NewCalibration(levels, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 20; round++ {
		k := rng.Intn(6) // includes empty rounds
		actuals := make([]float64, k)
		rows := make([][]float64, k)
		for i := range rows {
			actuals[i] = 5 + 10*rng.Float64()
			base := 4 + 10*rng.Float64()
			rows[i] = []float64{base, base + 2*rng.Float64(), base + 2 + 3*rng.Float64()}
			switch rng.Intn(8) {
			case 0:
				actuals[i] = math.NaN()
			case 1:
				rows[i][1] = math.NaN()
			case 2:
				rows[i][2] = math.Inf(1)
			}
		}
		if err := all.ObserveAll(actuals, rows); err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			if err := loop.Observe(actuals[i], rows[i]); err != nil {
				t.Fatal(err)
			}
		}
		gotSnap, gotBytes := calibrationImage(t, all)
		wantSnap, wantBytes := calibrationImage(t, loop)
		if !reflect.DeepEqual(gotSnap, wantSnap) {
			t.Fatalf("round %d: ObserveAll snapshot %+v, Observe loop %+v", round, gotSnap, wantSnap)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("round %d: ObserveAll and the Observe loop save different bytes", round)
		}
	}
	if snap := all.Snapshot(); snap.Skipped == 0 || snap.Steps != 7 {
		t.Fatalf("skipped %d, steps %d: want some skipped rows and a full window", snap.Skipped, snap.Steps)
	}
}

// TestCalibrationObserveAllRowLengthError checks every row before
// admitting any: a short row anywhere in the round leaves the window,
// the skipped count and the Save bytes untouched.
func TestCalibrationObserveAllRowLengthError(t *testing.T) {
	c, err := NewCalibration([]float64{0.5, 0.9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ObserveAll([]float64{10, 11}, [][]float64{{9, 12}, {10, 13}}); err != nil {
		t.Fatal(err)
	}
	beforeSnap, beforeBytes := calibrationImage(t, c)
	bad := [][]float64{{9, 12}, {math.NaN(), 13}, {10}}
	if err := c.ObserveAll([]float64{10, 11, 12}, bad); err == nil {
		t.Fatal("a row with the wrong number of quantiles was accepted")
	}
	if err := c.ObserveAll([]float64{10}, [][]float64{{9, 12}, {10, 13}}); err == nil {
		t.Fatal("more rows than actuals was accepted")
	}
	afterSnap, afterBytes := calibrationImage(t, c)
	if !reflect.DeepEqual(afterSnap, beforeSnap) || !bytes.Equal(afterBytes, beforeBytes) {
		t.Fatalf("a rejected round changed the window: %+v, was %+v", afterSnap, beforeSnap)
	}
}

// TestCalibrationObserveAllAllocFree pins the fleet's per-round
// calibration cost: observing a round into a full window allocates
// nothing.
func TestCalibrationObserveAllAllocFree(t *testing.T) {
	c, err := NewCalibration([]float64{0.5, 0.9}, 8)
	if err != nil {
		t.Fatal(err)
	}
	actuals := []float64{10, 11, 12}
	rows := [][]float64{{9, 12}, {10, 13}, {11, 14}}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.ObserveAll(actuals, rows); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ObserveAll made %v allocations, want 0", allocs)
	}
}
