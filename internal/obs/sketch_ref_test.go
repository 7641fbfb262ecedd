package obs

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refSketch is the reference model for Sketch: the same bucketing,
// rank walk and image over one map per sign.
type refSketch struct {
	alpha, gamma, lnG float64
	zero              uint64
	pos, neg          map[int32]uint64
	count             uint64
	sum, min, max     float64
}

func newRefSketch(alpha float64) *refSketch {
	gamma := (1 + alpha) / (1 - alpha)
	return &refSketch{alpha: alpha, gamma: gamma, lnG: math.Log(gamma),
		pos: map[int32]uint64{}, neg: map[int32]uint64{}}
}

func (s *refSketch) key(v float64) int32 { return int32(math.Ceil(math.Log(v) / s.lnG)) }

func (s *refSketch) value(key int32) float64 {
	v := 2 * math.Pow(s.gamma, float64(key)) / (s.gamma + 1)
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

func (s *refSketch) ObserveN(v float64, n uint64) {
	if n == 0 || math.IsNaN(v) {
		return
	}
	if math.IsInf(v, 0) {
		v = math.Copysign(math.MaxFloat64, v)
	}
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
		s.pos[s.key(v)] += n
	case v < -sketchZeroCutoff:
		s.neg[s.key(-v)] += n
	default:
		s.zero += n
	}
}

func (s *refSketch) Buckets() int {
	n := len(s.pos) + len(s.neg)
	if s.zero > 0 {
		n++
	}
	return n
}

func refSortedKeys(m map[int32]uint64) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func (s *refSketch) Percentile(p float64) float64 {
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
	var cum int64
	negKeys := refSortedKeys(s.neg)
	for i := len(negKeys) - 1; i >= 0; i-- {
		cum += int64(s.neg[negKeys[i]])
		if cum > rank {
			return -s.value(negKeys[i])
		}
	}
	cum += int64(s.zero)
	if cum > rank {
		return 0
	}
	for _, k := range refSortedKeys(s.pos) {
		cum += int64(s.pos[k])
		if cum > rank {
			return s.value(k)
		}
	}
	return s.max
}

func (s *refSketch) Snapshot() SketchSnapshot {
	snap := SketchSnapshot{Alpha: s.alpha, Count: s.count, Sum: s.sum, Min: s.min, Max: s.max, Zero: s.zero}
	snap.PosKeys = refSortedKeys(s.pos)
	snap.PosCounts = make([]uint64, len(snap.PosKeys))
	for i, k := range snap.PosKeys {
		snap.PosCounts[i] = s.pos[k]
	}
	snap.NegKeys = refSortedKeys(s.neg)
	snap.NegCounts = make([]uint64, len(snap.NegKeys))
	for i, k := range snap.NegKeys {
		snap.NegCounts[i] = s.neg[k]
	}
	return snap
}

func (s *refSketch) Save() []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s.Snapshot()); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func (s *refSketch) Merge(snap SketchSnapshot) {
	if snap.Count == 0 {
		return
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
		s.pos[k] += snap.PosCounts[i]
	}
	for i, k := range snap.NegKeys {
		s.neg[k] += snap.NegCounts[i]
	}
}

// sketchStream draws a stream mixing both signs, zeros, magnitudes
// below the zero cutoff, NaN, ±Inf and values across forty decades.
func sketchStream(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch r := rng.Intn(40); {
		case r == 0:
			xs[i] = math.NaN()
		case r == 1:
			xs[i] = math.Inf(1)
		case r == 2:
			xs[i] = math.Inf(-1)
		case r == 3:
			xs[i] = 0
		case r == 4:
			xs[i] = 1e-13 * rng.Float64() // counts as zero
		case r == 5:
			xs[i] = -math.MaxFloat64 * rng.Float64()
		default:
			v := math.Pow(10, -11+40*rng.Float64())
			if rng.Intn(3) == 0 {
				v = -v
			}
			xs[i] = v
		}
	}
	return xs
}

// sketchPGrid covers both tails finely and the body coarsely.
var sketchPGrid = []float64{0, 0.1, 0.5, 1, 2.5, 5, 10, 20, 25, 30, 40, 50, 60, 70, 75, 80, 90, 95, 97.5, 99, 99.5, 99.9, 100}

// checkSketchMatches requires the sketch to answer every query exactly
// as the reference model does.
func checkSketchMatches(t *testing.T, what string, got *Sketch, want *refSketch) {
	t.Helper()
	gs, ws := got.Snapshot(), want.Snapshot()
	// Opposite clamped infinities overflow the sum to NaN, which
	// DeepEqual never equates; compare it by bits instead.
	if math.Float64bits(gs.Sum) != math.Float64bits(ws.Sum) {
		t.Fatalf("%s: sum %v, reference %v", what, gs.Sum, ws.Sum)
	}
	gs.Sum, ws.Sum = 0, 0
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: snapshot\n %+v\nreference\n %+v", what, gs, ws)
	}
	var buf bytes.Buffer
	if err := got.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want.Save()) {
		t.Fatalf("%s: Save bytes differ from the reference", what)
	}
	for _, p := range sketchPGrid {
		if g, w := got.Percentile(p), want.Percentile(p); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: p%v = %v, reference %v", what, p, g, w)
		}
	}
	if g, w := got.Buckets(), want.Buckets(); g != w {
		t.Fatalf("%s: %d buckets, reference %d", what, g, w)
	}
}

// TestSketchMatchesReference replays randomized streams through the
// dense sketch and the map reference, then merges and reloads them,
// comparing snapshots, Save bytes, a percentile grid and bucket counts
// at every stage.
func TestSketchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		alpha := []float64{DefaultSketchAlpha, 0.02, 0.05}[trial%3]
		a, ra := NewSketch(alpha), newRefSketch(alpha)
		b, rb := NewSketch(alpha), newRefSketch(alpha)
		checkSketchMatches(t, "empty", a, ra)
		for i, v := range sketchStream(rng, 50+rng.Intn(400)) {
			n := uint64(1)
			if i%7 == 0 {
				n = uint64(rng.Intn(4)) // includes ObserveN(v, 0)
			}
			a.ObserveN(v, n)
			ra.ObserveN(v, n)
			if i%100 == 0 {
				checkSketchMatches(t, "mid-stream", a, ra)
			}
		}
		checkSketchMatches(t, "stream", a, ra)
		for _, v := range sketchStream(rng, rng.Intn(200)) {
			b.Observe(v)
			rb.ObserveN(v, 1)
		}
		checkSketchMatches(t, "second stream", b, rb)

		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		ra.Merge(rb.Snapshot())
		checkSketchMatches(t, "merged", a, ra)
		empty := NewSketch(alpha)
		if err := empty.Merge(a); err != nil {
			t.Fatal(err)
		}
		checkSketchMatches(t, "merged into empty", empty, ra)

		loaded := NewSketch(alpha)
		loaded.Observe(123) // Load replaces, not adds
		if err := loaded.Load(bytes.NewReader(ra.Save())); err != nil {
			t.Fatal(err)
		}
		checkSketchMatches(t, "loaded", loaded, ra)
	}
}

// TestSketchLoadRejectsUnreachableKeys: a key no observation can produce
// at the sketch's accuracy would size the dense store from corrupt
// input, so Load refuses it.
func TestSketchLoadRejectsUnreachableKeys(t *testing.T) {
	s := NewSketch(DefaultSketchAlpha)
	for _, snap := range []SketchSnapshot{
		{Alpha: DefaultSketchAlpha, Count: 1, PosKeys: []int32{math.MaxInt32}, PosCounts: []uint64{1}},
		{Alpha: DefaultSketchAlpha, Count: 2, NegKeys: []int32{math.MinInt32, 0}, NegCounts: []uint64{1, 1}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		if err := s.Load(&buf); err == nil {
			t.Errorf("snapshot %+v with an unreachable key was accepted", snap)
		}
	}
	// The extreme reachable keys load.
	ref := newRefSketch(DefaultSketchAlpha)
	ref.ObserveN(math.Inf(1), 1)
	ref.ObserveN(-2e-12, 1)
	ref.ObserveN(math.Inf(-1), 1)
	if err := s.Load(bytes.NewReader(ref.Save())); err != nil {
		t.Fatalf("loading the extreme reachable keys: %v", err)
	}
	checkSketchMatches(t, "extreme keys", s, ref)
}

// TestSketchObserveAllocFree pins the per-tenant-round cost: observing
// inside an already-seen key range allocates nothing.
func TestSketchObserveAllocFree(t *testing.T) {
	s := NewSketch(DefaultSketchAlpha)
	s.Observe(1e-4)
	s.Observe(1e-2)
	s.Observe(-3)
	s.Observe(-0.5)
	vs := []float64{2e-4, 5e-3, 1e-3, 0, -1, -2.5}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		s.Observe(vs[i%len(vs)])
		i++
	})
	if allocs != 0 {
		t.Errorf("Observe inside the seen key range made %v allocations, want 0", allocs)
	}
}

// refTopK is the reference model for TopK: the same space-saving rule
// over a map, with the victim found by a full scan.
type refTopK struct {
	k       int
	entries map[string]*TopEntry
}

func (t *refTopK) Observe(key string, w float64) {
	if w <= 0 {
		return
	}
	if e, ok := t.entries[key]; ok {
		e.Count += w
		return
	}
	if len(t.entries) < t.k {
		t.entries[key] = &TopEntry{Key: key, Count: w}
		return
	}
	var victim string
	var min float64
	first := true
	for k2, e := range t.entries {
		if first || e.Count < min || (e.Count == min && k2 > victim) {
			victim, min, first = k2, e.Count, false
		}
	}
	delete(t.entries, victim)
	t.entries[key] = &TopEntry{Key: key, Count: min + w, Err: min}
}

func (t *refTopK) Top() []TopEntry {
	out := make([]TopEntry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func (t *refTopK) Save() []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(topKImage{K: t.k, Entries: t.Top()}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzTopKMatchesReference drives the slot tracker and the map
// reference with the same weighted stream — few distinct keys and small
// integer weights, so count ties and tie-broken evictions are the norm
// — and requires identical Top lists and Save bytes after every step,
// and after a Save/Load round trip.
func FuzzTopKMatchesReference(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 0, 2})
	f.Add(uint8(1), []byte{5, 1, 6, 1, 5, 3})
	f.Add(uint8(8), []byte("the quick brown fox jumps over the lazy dog"))
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "aa", "ab"}
	f.Fuzz(func(t *testing.T, k uint8, ops []byte) {
		capacity := 1 + int(k%10)
		got := NewTopK(capacity)
		want := &refTopK{k: capacity, entries: map[string]*TopEntry{}}
		for i := 0; i+1 < len(ops); i += 2 {
			key := keys[int(ops[i])%len(keys)]
			w := float64(ops[i+1]%4) - 0.5*float64(ops[i+1]/128) // 0..3, some halves, some <= 0
			got.Observe(key, w)
			want.Observe(key, w)
			if g, w := got.Top(0), want.Top(); !reflect.DeepEqual(g, w) {
				t.Fatalf("step %d: Top %+v, reference %+v", i/2, g, w)
			}
		}
		var buf bytes.Buffer
		if err := got.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want.Save()) {
			t.Fatal("Save bytes differ from the reference")
		}
		loaded := NewTopK(capacity)
		loaded.Observe("stale", 1) // Load replaces, not adds
		if err := loaded.Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		if g, w := loaded.Top(0), want.Top(); !reflect.DeepEqual(g, w) {
			t.Fatalf("after Load: Top %+v, reference %+v", g, w)
		}
	})
}

// TestTopKEvictionAllocFree pins the health plane's per-tenant cost: a
// miss that evicts overwrites the victim's slot and allocates nothing.
func TestTopKEvictionAllocFree(t *testing.T) {
	tk := NewTopK(8)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = string(rune('A'+i%26)) + string(rune('a'+i/26))
	}
	for _, k := range keys[:8] {
		tk.Observe(k, 1)
	}
	i := 8
	allocs := testing.AllocsPerRun(200, func() {
		tk.Observe(keys[i%len(keys)], 1)
		i++
	})
	if allocs != 0 {
		t.Errorf("evicting Observe made %v allocations, want 0", allocs)
	}
}
