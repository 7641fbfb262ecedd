package obs

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"sync"
)

// TopEntry is one heavy hitter reported by TopK. Count is the tracked
// weight; Err bounds its overestimate — the true weight lies in
// [Count-Err, Count].
type TopEntry struct {
	Key   string
	Count float64
	Err   float64
}

// TopK tracks the heaviest keys in a weighted stream with the
// space-saving algorithm: at most k counters live at once, and when a
// new key arrives at capacity it inherits (and errs by) the smallest
// tracked count. Any key whose true weight exceeds total/k is
// guaranteed to be present. Eviction is deterministic — ties on the
// minimum count evict the lexicographically greatest key — so the
// tracked set depends only on the observation sequence, never on slot
// order. Safe for concurrent use.
//
// The k entries live in one slice, looked up and evicted by a linear
// scan, and an eviction overwrites the victim's slot in place: cheap
// and allocation-free for the small k it is meant for (the fleet's
// worst-tenant lists use 8), O(k) per observation for large k.
type TopK struct {
	mu      sync.Mutex
	k       int
	entries []TopEntry
}

// NewTopK returns a tracker keeping at most k keys; k < 1 panics.
func NewTopK(k int) *TopK {
	if k < 1 {
		panic(fmt.Sprintf("obs: top-k capacity %d < 1", k))
	}
	return &TopK{k: k, entries: make([]TopEntry, 0, k)}
}

// find returns the slot holding key, or -1; callers hold t.mu.
func (t *TopK) find(key string) int {
	for i := range t.entries {
		if t.entries[i].Key == key {
			return i
		}
	}
	return -1
}

// K returns the tracker capacity.
func (t *TopK) K() int { return t.k }

// Observe adds weight w for key. Non-positive weights are ignored.
func (t *TopK) Observe(key string, w float64) {
	if w <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i := t.find(key); i >= 0 {
		t.entries[i].Count += w
		return
	}
	if len(t.entries) < t.k {
		t.entries = append(t.entries, TopEntry{Key: key, Count: w})
		return
	}
	// Evict the minimum-count entry; on ties the lexicographically
	// greatest key loses, making eviction a total order.
	victim := 0
	for i := 1; i < len(t.entries); i++ {
		e, v := &t.entries[i], &t.entries[victim]
		if e.Count < v.Count || (e.Count == v.Count && e.Key > v.Key) {
			victim = i
		}
	}
	min := t.entries[victim].Count
	t.entries[victim] = TopEntry{Key: key, Count: min + w, Err: min}
}

// Top returns up to n entries sorted by count descending, key ascending
// on ties. n <= 0 or n > k returns all tracked entries.
func (t *TopK) Top(n int) []TopEntry {
	t.mu.Lock()
	out := make([]TopEntry, len(t.entries))
	copy(out, t.entries)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// topKImage is the deterministic serialized form: entries sorted the
// same way Top sorts them.
type topKImage struct {
	K       int
	Entries []TopEntry
}

// Save writes the tracker as a deterministic gob image.
func (t *TopK) Save(w io.Writer) error {
	t.mu.Lock()
	k := t.k
	t.mu.Unlock()
	img := topKImage{K: k, Entries: t.Top(0)}
	if err := gob.NewEncoder(w).Encode(img); err != nil {
		return fmt.Errorf("obs: saving top-k: %w", err)
	}
	return nil
}

// Load replaces the tracker contents with an image written by Save.
// Entries beyond the receiver's capacity are dropped heaviest-first.
func (t *TopK) Load(r io.Reader) error {
	var img topKImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return fmt.Errorf("obs: loading top-k: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries = t.entries[:0]
	for _, e := range img.Entries {
		if len(t.entries) >= t.k {
			break
		}
		if i := t.find(e.Key); i >= 0 {
			t.entries[i] = e
			continue
		}
		t.entries = append(t.entries, e)
	}
	return nil
}
