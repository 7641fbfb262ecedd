package cluster

import (
	"encoding/gob"
	"fmt"
	"io"
)

// calibrationState is the gob image of a calibration window: the config
// plus the retained observations oldest-first. Rolling sums and gauge
// values are not persisted — Load re-observes the window, which rebuilds
// both exactly and re-exports the gauges on the restarted process.
type calibrationState struct {
	Levels  []float64
	Window  int
	Actuals []float64
	Preds   [][]float64
	Skipped uint64
}

// Save writes the rolling window so a restarted control plane resumes
// forecast-health monitoring with its accumulated evidence instead of a
// blind warm-up period.
func (c *Calibration) Save(w io.Writer) error {
	c.mu.Lock()
	st := calibrationState{
		Levels:  append([]float64(nil), c.levels...),
		Window:  c.window,
		Skipped: c.skipped,
	}
	for i := 0; i < c.count; i++ {
		idx := (c.next - c.count + i + c.window) % c.window
		st.Actuals = append(st.Actuals, c.actuals[idx])
		st.Preds = append(st.Preds, append([]float64(nil), c.preds[idx]...))
	}
	c.mu.Unlock()
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("cluster: saving calibration: %w", err)
	}
	return nil
}

// LoadCalibration restores a tracker saved by Save, re-registering its
// gauges on obs.Default and replaying the retained window so every
// rolling sum and exported gauge matches the checkpointed process.
func LoadCalibration(r io.Reader) (*Calibration, error) {
	var st calibrationState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("cluster: loading calibration: %w", err)
	}
	if len(st.Actuals) != len(st.Preds) {
		return nil, fmt.Errorf("cluster: calibration snapshot has %d actuals for %d prediction rows",
			len(st.Actuals), len(st.Preds))
	}
	if len(st.Actuals) > st.Window {
		return nil, fmt.Errorf("cluster: calibration snapshot holds %d observations for a %d-step window",
			len(st.Actuals), st.Window)
	}
	c, err := NewCalibration(st.Levels, st.Window)
	if err != nil {
		return nil, fmt.Errorf("cluster: loading calibration: %w", err)
	}
	for i, actual := range st.Actuals {
		if err := c.Observe(actual, st.Preds[i]); err != nil {
			return nil, fmt.Errorf("cluster: replaying calibration window: %w", err)
		}
	}
	c.mu.Lock()
	c.skipped = st.Skipped
	c.mu.Unlock()
	c.Publish()
	return c, nil
}
