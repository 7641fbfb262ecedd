package scaler

import (
	"errors"
	"fmt"
	"math"

	"robustscale/internal/forecast"
)

// ErrUnrepairableFan is wrapped by RepairFan when a fan cannot be made
// finite: its first step holds no finite quantile value to anchor on.
var ErrUnrepairableFan = errors.New("scaler: unrepairable quantile fan")

// RepairFan validates and repairs a quantile fan in place so that every
// row is finite, monotone in the quantile level, and bounded above by
// maxValue (when maxValue > 0). It returns how many entries it changed.
//
// Repairs, in order per row:
//
//  1. Non-finite entries (NaN/±Inf) take the nearest finite value in the
//     same row, falling back to the previous (already repaired) row's
//     value at the same level — the forecast's short-range persistence
//     assumption. A first row with no finite value at all is
//     unrepairable and returns ErrUnrepairableFan.
//  2. Values above maxValue are clamped to it (blow-up containment).
//  3. Quantile crossings are resolved by an isotonic running-max clamp,
//     the standard monotone projection for crossing quantile heads.
//
// A structurally healthy fan — finite, monotone, within bounds, the
// invariant every forecaster in this repository already maintains via
// Enforce — is left bit-identical with zero repairs, which is what lets
// the Guard wrap a healthy control loop without perturbing it.
func RepairFan(f *forecast.QuantileForecast, maxValue float64) (int, error) {
	if f == nil || len(f.Values) == 0 {
		return 0, fmt.Errorf("%w: empty fan", ErrUnrepairableFan)
	}
	repairs := 0
	var prev []float64
	for t, row := range f.Values {
		if len(row) != len(f.Levels) {
			return repairs, fmt.Errorf("%w: step %d has %d values for %d levels",
				ErrUnrepairableFan, t, len(row), len(f.Levels))
		}
		for i, v := range row {
			if isFinite(v) {
				continue
			}
			if fill, ok := nearestFinite(row, i); ok {
				row[i] = fill
			} else if prev != nil {
				row[i] = prev[i]
			} else {
				return repairs, fmt.Errorf("%w: step %d has no finite quantile values", ErrUnrepairableFan, t)
			}
			repairs++
		}
		if maxValue > 0 {
			for i, v := range row {
				if v > maxValue {
					row[i] = maxValue
					repairs++
				}
			}
		}
		for i := 1; i < len(row); i++ {
			if row[i] < row[i-1] {
				row[i] = row[i-1]
				repairs++
			}
		}
		prev = row
	}
	// The mean path rides along: non-finite or blown-up entries take the
	// row median, keeping downstream point consumers safe too.
	for t, v := range f.Mean {
		if t >= len(f.Values) {
			break
		}
		if !isFinite(v) || (maxValue > 0 && v > maxValue) {
			f.Mean[t] = f.At(t, 0.5)
			repairs++
		}
	}
	return repairs, nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func allFinite(vs []float64) bool {
	for _, v := range vs {
		if !isFinite(v) {
			return false
		}
	}
	return true
}

// nearestFinite returns the finite row value closest to index i.
func nearestFinite(row []float64, i int) (float64, bool) {
	for d := 1; d < len(row); d++ {
		if j := i - d; j >= 0 && isFinite(row[j]) {
			return row[j], true
		}
		if j := i + d; j < len(row) && isFinite(row[j]) {
			return row[j], true
		}
	}
	return 0, false
}
