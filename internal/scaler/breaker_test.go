package scaler

import (
	"bytes"
	"encoding/gob"
	"sync"
	"testing"
	"time"
)

// checkFastPath requires the lock-free flag to mirror the locked state
// once any call has written the breaker: set exactly when it is closed
// with no failures, the only position where Allow is always true and
// Success changes nothing. (A zero-value breaker starts with the flag
// clear and takes the locked path until its first Success.)
func checkFastPath(t *testing.T, step string, b *Breaker) {
	t.Helper()
	b.mu.Lock()
	want := b.state == BreakerClosed && b.failures == 0
	b.mu.Unlock()
	if got := b.clean.Load(); got != want {
		t.Fatalf("%s: fast-path flag %v, locked state says %v", step, got, want)
	}
}

// TestBreakerTransitionTable walks closed → failures → open → half-open
// → closed (and half-open → open), checking state, failure count, the
// Allow verdict and the fast-path flag after every call.
func TestBreakerTransitionTable(t *testing.T) {
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	b := &Breaker{Threshold: 2, Cooldown: time.Minute}
	type row struct {
		step      string
		do        func() bool // returns the Allow verdict, or true
		state     BreakerState
		failures  int
		wantAllow bool
	}
	allow := func(at time.Duration) func() bool { return func() bool { return b.Allow(t0.Add(at)) } }
	fail := func(at time.Duration) func() bool { return func() bool { b.Failure(t0.Add(at)); return true } }
	succeed := func() bool { b.Success(); return true }
	if !b.Allow(t0) || b.clean.Load() {
		t.Fatal("a zero-value breaker must allow on the locked path")
	}
	for _, r := range []row{
		{"success on a zero value", succeed, BreakerClosed, 0, true},
		{"closed allows (fast path)", allow(0), BreakerClosed, 0, true},
		{"first failure", fail(0), BreakerClosed, 1, true},
		{"closed with a failure allows", allow(time.Second), BreakerClosed, 1, true},
		{"success clears failures", succeed, BreakerClosed, 0, true},
		{"failure again", fail(2 * time.Second), BreakerClosed, 1, true},
		{"threshold failure opens", fail(3 * time.Second), BreakerOpen, 2, true},
		{"open refuses inside cooldown", allow(30 * time.Second), BreakerOpen, 2, false},
		{"cooldown elapsed: half-open probe", allow(2 * time.Minute), BreakerHalfOpen, 2, true},
		{"failed probe reopens", fail(2 * time.Minute), BreakerOpen, 3, true},
		{"second probe", allow(4 * time.Minute), BreakerHalfOpen, 3, true},
		{"probe success closes", succeed, BreakerClosed, 0, true},
		{"closed again (fast path)", allow(5 * time.Minute), BreakerClosed, 0, true},
	} {
		if got := r.do(); got != r.wantAllow {
			t.Fatalf("%s: Allow = %v, want %v", r.step, got, r.wantAllow)
		}
		b.mu.Lock()
		state, failures := b.state, b.failures
		b.mu.Unlock()
		if state != r.state || failures != r.failures {
			t.Fatalf("%s: state %v with %d failures, want %v with %d", r.step, state, failures, r.state, r.failures)
		}
		checkFastPath(t, r.step, b)
	}
}

// TestBreakerLoadEachState restores every position, including closed
// with failures, and requires the fast-path flag and the next Allow and
// Success to behave as the locked state machine says.
func TestBreakerLoadEachState(t *testing.T) {
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		name      string
		snap      breakerSnapshot
		wantAllow bool
		after     BreakerState // state after Allow then Success
	}{
		{"closed clean", breakerSnapshot{State: int(BreakerClosed)}, true, BreakerClosed},
		{"closed with failures", breakerSnapshot{State: int(BreakerClosed), Failures: 2}, true, BreakerClosed},
		{"open inside cooldown", breakerSnapshot{State: int(BreakerOpen), Failures: 3, OpenedAt: t0}, false, BreakerOpen},
		{"open past cooldown", breakerSnapshot{State: int(BreakerOpen), Failures: 3, OpenedAt: t0.Add(-time.Hour)}, true, BreakerClosed},
		{"half-open", breakerSnapshot{State: int(BreakerHalfOpen), Failures: 3, OpenedAt: t0}, true, BreakerClosed},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c.snap); err != nil {
			t.Fatal(err)
		}
		// Load over a breaker whose stale flag says clean, so a missed
		// flag write in Load shows.
		b := &Breaker{Cooldown: time.Minute}
		b.Success()
		if err := b.Load(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkFastPath(t, c.name+" after Load", b)
		got := b.Allow(t0)
		if got != c.wantAllow {
			t.Fatalf("%s: Allow = %v, want %v", c.name, got, c.wantAllow)
		}
		checkFastPath(t, c.name+" after Allow", b)
		if got {
			b.Success()
			checkFastPath(t, c.name+" after Success", b)
		}
		if s := b.State(); s != c.after {
			t.Fatalf("%s: state %v, want %v", c.name, s, c.after)
		}
		b.mu.Lock()
		failures := b.failures
		b.mu.Unlock()
		if c.after == BreakerClosed && failures != 0 {
			t.Fatalf("%s: %d failures left after a successful round", c.name, failures)
		}
	}
}

// TestBreakerFastPathConcurrentReaders runs State readers against a
// writer that moves the breaker on and off the fast path; run under
// -race it proves the flag and the locked fields are published safely.
func TestBreakerFastPathConcurrentReaders(t *testing.T) {
	b := &Breaker{Threshold: 2, Cooldown: time.Microsecond}
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch b.State() {
				case BreakerClosed, BreakerOpen, BreakerHalfOpen:
				default:
					t.Errorf("invalid state %v", b.State())
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		now := base.Add(time.Duration(i) * time.Millisecond)
		if b.Allow(now) {
			if i%5 == 0 {
				b.Failure(now)
			} else {
				b.Success()
			}
		}
	}
	close(stop)
	wg.Wait()
	checkFastPath(t, "after the run", b)
}

// TestBreakerClosedAllocFree pins the healthy apply path: Allow and
// Success on a closed breaker allocate nothing.
func TestBreakerClosedAllocFree(t *testing.T) {
	b := &Breaker{}
	b.Success()
	now := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	allocs := testing.AllocsPerRun(100, func() {
		if b.Allow(now) {
			b.Success()
		}
	})
	if allocs != 0 {
		t.Errorf("closed-breaker Allow+Success made %v allocations, want 0", allocs)
	}
}
