package obs

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sync"
)

// DefaultSketchAlpha is the relative accuracy the health plane uses for
// its distribution sketches: every quantile estimate is within ±1% of
// the true sample value at that rank.
const DefaultSketchAlpha = 0.01

// sketchZeroCutoff is the magnitude below which an observation counts as
// exactly zero. Log-bucketed sketches cannot index arbitrarily small
// values with bounded memory; anything this small is zero for every
// signal the control plane tracks (rates, costs, latencies).
const sketchZeroCutoff = 1e-12

// Sketch is a deterministic, mergeable quantile sketch with bounded
// relative error (DDSketch-style). Observations land in logarithmic
// buckets of width γ = (1+α)/(1-α); a quantile query returns the bucket
// midpoint, which is within ±α of the true sample value at that rank.
// Each sign keeps its bucket counts in one dense slice spanning the
// observed key range, so memory is O(observed key range) — about
// ln(max/min)/(2α) buckets per sign: for α = 1%, a signal spanning six
// decades needs under 700 — independent of the observation count, so a
// 10k-tenant fleet can keep per-shard distributions without ever
// materializing (or sorting) per-tenant slices. The worst case is a
// sign that sees both the ±Inf clamp (±MaxFloat64) and a magnitude just
// above the 1e-12 zero cutoff: about 368.5/α buckets, 36.9k (295 KB) per
// sign at α = 1%.
//
// Two sketches with the same α merge exactly: Merge adds bucket counts,
// so Observe-then-Merge in any grouping yields the same buckets as
// observing everything into one sketch. All methods are safe for
// concurrent use; determinism of query results requires only that the
// multiset of observations is deterministic (order never matters).
type Sketch struct {
	mu    sync.Mutex
	alpha float64
	gamma float64 // (1+α)/(1-α)
	lnG   float64 // ln(γ), cached for indexing
	zero  uint64  // observations with |v| <= sketchZeroCutoff
	pos   sketchStore
	neg   sketchStore // keyed by magnitude
	count uint64
	sum   float64
	min   float64
	max   float64
}

// sketchStore holds one sign's bucket counts densely: counts[i] is the
// count of bucket lo+i, so occupied buckets come out sorted by key.
type sketchStore struct {
	lo     int32
	counts []uint64
	nz     int // buckets with a non-zero count
}

// add adds n to bucket k, widening the dense range to cover k.
func (d *sketchStore) add(k int32, n uint64) {
	if n == 0 {
		return
	}
	switch {
	case len(d.counts) == 0:
		d.lo, d.counts = k, make([]uint64, 1)
	case k < d.lo:
		grow := int(d.lo) - int(k)
		c := make([]uint64, grow+len(d.counts))
		copy(c[grow:], d.counts)
		d.lo, d.counts = k, c
	case int(k)-int(d.lo) >= len(d.counts):
		d.counts = append(d.counts, make([]uint64, int(k)-int(d.lo)+1-len(d.counts))...)
	}
	i := int(k) - int(d.lo)
	if d.counts[i] == 0 {
		d.nz++
	}
	d.counts[i] += n
}

// snapshot returns the occupied keys ascending with their counts.
func (d *sketchStore) snapshot() ([]int32, []uint64) {
	keys := make([]int32, 0, d.nz)
	counts := make([]uint64, 0, d.nz)
	for i, c := range d.counts {
		if c > 0 {
			keys = append(keys, d.lo+int32(i))
			counts = append(counts, c)
		}
	}
	return keys, counts
}

// NewSketch returns an empty sketch with the given relative accuracy
// α ∈ (0, 1); out-of-range values panic (a programming error, like a
// bad histogram bucket grid).
func NewSketch(alpha float64) *Sketch {
	if !(alpha > 0 && alpha < 1) {
		panic(fmt.Sprintf("obs: sketch relative accuracy %v outside (0, 1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{alpha: alpha, gamma: gamma, lnG: math.Log(gamma)}
}

// RelativeAccuracy returns the sketch's configured α.
func (s *Sketch) RelativeAccuracy() float64 { return s.alpha }

// key maps a positive magnitude to its bucket index: bucket i covers
// (γ^(i-1), γ^i], so the midpoint estimator 2γ^i/(γ+1) is within ±α of
// every value in the bucket.
func (s *Sketch) key(v float64) int32 {
	return int32(math.Ceil(math.Log(v) / s.lnG))
}

// value returns the midpoint estimate of bucket i, clamped to the
// finite range (the MaxFloat64 bucket's upper edge overflows).
func (s *Sketch) value(key int32) float64 {
	v := 2 * math.Pow(s.gamma, float64(key)) / (s.gamma + 1)
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// Observe records one value. NaN is ignored (a poisoned sample must not
// poison the distribution); ±Inf are clamped into the extreme buckets of
// the largest finite magnitude.
func (s *Sketch) Observe(v float64) { s.ObserveN(v, 1) }

// ObserveN records a value n times in O(1).
func (s *Sketch) ObserveN(v float64, n uint64) {
	if n == 0 || math.IsNaN(v) {
		return
	}
	if math.IsInf(v, 0) {
		v = math.Copysign(math.MaxFloat64, v)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count += n
	s.sum += v * float64(n)
	switch {
	case v > sketchZeroCutoff:
		s.pos.add(s.key(v), n)
	case v < -sketchZeroCutoff:
		s.neg.add(s.key(-v), n)
	default:
		s.zero += n
	}
}

// Count returns the number of observations.
func (s *Sketch) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Sum returns the sum of all observations.
func (s *Sketch) Sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum
}

// Min returns the smallest observation (0 when empty).
func (s *Sketch) Min() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s *Sketch) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max
}

// Buckets returns how many distinct buckets the sketch occupies — its
// memory footprint in units of one (key, count) pair.
func (s *Sketch) Buckets() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.pos.nz + s.neg.nz
	if s.zero > 0 {
		n++
	}
	return n
}

// Merge folds another sketch into the receiver. Both must share the
// same relative accuracy; merging is exact (bucket counts add), so the
// result is independent of how observations were grouped.
func (s *Sketch) Merge(o *Sketch) error {
	if s == o {
		return fmt.Errorf("obs: cannot merge a sketch into itself")
	}
	snap := o.Snapshot()
	if snap.Alpha != s.alpha {
		return fmt.Errorf("obs: merging sketch with relative accuracy %v into %v", snap.Alpha, s.alpha)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap.Count == 0 {
		return nil
	}
	if s.count == 0 || snap.Min < s.min {
		s.min = snap.Min
	}
	if s.count == 0 || snap.Max > s.max {
		s.max = snap.Max
	}
	s.count += snap.Count
	s.sum += snap.Sum
	s.zero += snap.Zero
	for i, k := range snap.PosKeys {
		s.pos.add(k, snap.PosCounts[i])
	}
	for i, k := range snap.NegKeys {
		s.neg.add(k, snap.NegCounts[i])
	}
	return nil
}

// Quantile returns the estimate for q ∈ [0, 1]; see Percentile.
func (s *Sketch) Quantile(q float64) float64 { return s.Percentile(q * 100) }

// Percentile returns the nearest-rank percentile estimate (p in
// (0, 100]), using the same rank rule as a sorted-slice nearest-rank
// percentile — rank = round(p/100·n) − 1, clamped — so the sketch answer
// is within ±α (relative) of the exact sorted-based answer for the same
// sample. Returns 0 on an empty sketch.
func (s *Sketch) Percentile(p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return 0
	}
	rank := int64(p/100*float64(s.count)+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= int64(s.count) {
		rank = int64(s.count) - 1
	}
	// Ascending walk: negative buckets from the largest magnitude down,
	// then zero, then positive buckets up.
	var cum int64
	for i := len(s.neg.counts) - 1; i >= 0; i-- {
		cum += int64(s.neg.counts[i])
		if cum > rank {
			return -s.value(s.neg.lo + int32(i))
		}
	}
	cum += int64(s.zero)
	if cum > rank {
		return 0
	}
	for i, c := range s.pos.counts {
		cum += int64(c)
		if cum > rank {
			return s.value(s.pos.lo + int32(i))
		}
	}
	return s.max // unreachable unless counts drifted; fail soft
}

// SketchSnapshot is a point-in-time copy of a sketch's buckets with keys
// sorted ascending — deterministic, directly serializable, and the gob
// image Save writes.
type SketchSnapshot struct {
	Alpha     float64
	Count     uint64
	Sum       float64
	Min, Max  float64
	Zero      uint64
	PosKeys   []int32
	PosCounts []uint64
	NegKeys   []int32
	NegCounts []uint64
}

// Snapshot returns a deterministic copy of the sketch contents.
func (s *Sketch) Snapshot() SketchSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SketchSnapshot{
		Alpha: s.alpha, Count: s.count, Sum: s.sum,
		Min: s.min, Max: s.max, Zero: s.zero,
	}
	snap.PosKeys, snap.PosCounts = s.pos.snapshot()
	snap.NegKeys, snap.NegCounts = s.neg.snapshot()
	return snap
}

// Save writes the sketch as a deterministic gob image.
func (s *Sketch) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(s.Snapshot()); err != nil {
		return fmt.Errorf("obs: saving sketch: %w", err)
	}
	return nil
}

// Load replaces the receiver's contents with a snapshot written by Save.
// The snapshot's relative accuracy must match the receiver's, and every
// key must be one Observe can produce at that accuracy (a magnitude in
// (1e-12, MaxFloat64]), which bounds the dense bucket range. A repeated
// key keeps its last count; zero-count buckets are dropped.
func (s *Sketch) Load(r io.Reader) error {
	var snap SketchSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("obs: loading sketch: %w", err)
	}
	if snap.Alpha != s.alpha {
		return fmt.Errorf("obs: sketch snapshot has relative accuracy %v, receiver %v", snap.Alpha, s.alpha)
	}
	if len(snap.PosKeys) != len(snap.PosCounts) || len(snap.NegKeys) != len(snap.NegCounts) {
		return fmt.Errorf("obs: sketch snapshot keys/counts length mismatch")
	}
	pos, err := s.loadStore(snap.PosKeys, snap.PosCounts)
	if err != nil {
		return err
	}
	neg, err := s.loadStore(snap.NegKeys, snap.NegCounts)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zero, s.count, s.sum = snap.Zero, snap.Count, snap.Sum
	s.min, s.max = snap.Min, snap.Max
	s.pos, s.neg = pos, neg
	return nil
}

// loadStore builds one sign's dense store from a snapshot's buckets.
func (s *Sketch) loadStore(keys []int32, counts []uint64) (sketchStore, error) {
	var d sketchStore
	if len(keys) == 0 {
		return d, nil
	}
	minKey, maxKey := s.key(sketchZeroCutoff), s.key(math.MaxFloat64)
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		if k < minKey || k > maxKey {
			return d, fmt.Errorf("obs: sketch snapshot key %d outside [%d, %d]", k, minKey, maxKey)
		}
		lo, hi = min(lo, k), max(hi, k)
	}
	d.lo, d.counts = lo, make([]uint64, int(hi)-int(lo)+1)
	for i, k := range keys {
		d.counts[k-lo] = counts[i]
	}
	for _, c := range d.counts {
		if c > 0 {
			d.nz++
		}
	}
	return d, nil
}
