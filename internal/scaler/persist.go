package scaler

import (
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"robustscale/internal/forecast"
)

// Checkpoint images of the resilience state. A restarted control plane
// that forgot its guard position would re-enter normal mode on a
// degraded stack, and a forgotten open breaker would hammer a failing
// control plane — so both serialize alongside the models.

// guardState is the gob image of a Guard's ladder position.
type guardState struct {
	Mode           int
	LastReason     string
	DegradedRounds int
	// Last-known-good fan, flattened (empty when none is retained).
	FanLevels []float64
	FanMean   []float64
	FanValues [][]float64
}

// Save writes the guard's degradation-ladder position and retained
// last-known-good fan. Configuration (Inner, Config, Health, Fallback)
// is not persisted — the restarted process reconstructs it from flags
// and re-wires the same hooks.
func (g *Guard) Save(w io.Writer) error {
	st := guardState{
		Mode:           int(g.mode),
		LastReason:     g.lastReason,
		DegradedRounds: g.degradedRounds,
	}
	if g.lastGoodFan != nil {
		st.FanLevels = g.lastGoodFan.Levels
		st.FanMean = g.lastGoodFan.Mean
		st.FanValues = g.lastGoodFan.Values
	}
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("scaler: saving guard: %w", err)
	}
	return nil
}

// Load restores the ladder position saved by Save into a freshly
// configured guard, re-exporting the degradation-mode gauge.
func (g *Guard) Load(r io.Reader) error {
	var st guardState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("scaler: loading guard: %w", err)
	}
	if st.Mode < int(ModeNormal) || st.Mode > int(ModeReactive) {
		return fmt.Errorf("scaler: guard snapshot has unknown mode %d", st.Mode)
	}
	g.mode = DegradationMode(st.Mode)
	g.lastReason = st.LastReason
	g.degradedRounds = st.DegradedRounds
	g.lastGoodFan = nil
	if len(st.FanValues) > 0 {
		g.lastGoodFan = &forecast.QuantileForecast{
			Levels: st.FanLevels,
			Mean:   st.FanMean,
			Values: st.FanValues,
		}
	}
	degradationMode.Set(float64(g.mode))
	return nil
}

// breakerState is the gob image of a Breaker's position. openedAt is
// stored as an absolute timestamp: the replay clock is virtual but
// monotone across restarts, so cooldown arithmetic stays correct.
type breakerSnapshot struct {
	State    int
	Failures int
	OpenedAt time.Time
}

// Save writes the breaker's position and consecutive-failure count.
func (b *Breaker) Save(w io.Writer) error {
	b.mu.Lock()
	st := breakerSnapshot{State: int(b.state), Failures: b.failures, OpenedAt: b.openedAt}
	b.mu.Unlock()
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("scaler: saving breaker: %w", err)
	}
	return nil
}

// Load restores a breaker saved by Save, re-exporting the state gauge.
func (b *Breaker) Load(r io.Reader) error {
	var st breakerSnapshot
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("scaler: loading breaker: %w", err)
	}
	if st.State < int(BreakerClosed) || st.State > int(BreakerHalfOpen) {
		return fmt.Errorf("scaler: breaker snapshot has unknown state %d", st.State)
	}
	b.mu.Lock()
	b.failures = st.Failures
	b.openedAt = st.OpenedAt
	b.state = BreakerState(st.State)
	breakerState.Set(float64(b.state))
	b.mu.Unlock()
	return nil
}
