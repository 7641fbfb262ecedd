package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"robustscale/internal/fleet"
	"robustscale/internal/obs"
	"robustscale/internal/persist"
)

// tiny shrinks a workload, and its durable drill, to fleets the tests
// can replay in seconds: eight tenants, one replayed day (12 rounds).
func tiny(w workload) workload {
	w.tenants, w.days = 8, 3
	if w.durableTenants > 0 {
		w.durableTenants, w.durableDays = 8, 3
	}
	return w
}

// declared reads the metrics BENCHMARK.json declares, by section, as
// name -> unit.
func declared(t *testing.T) map[string]map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]string{"end_to_end": {}, "per_layer": {}}
	for _, m := range spec.EndToEnd {
		out["end_to_end"][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		out["per_layer"][m.Name] = m.Unit
	}
	return out
}

// TestPrintedMetrics runs every workload, shrunk, in both modes: each
// run passes its checks and prints exactly the metrics BENCHMARK.json
// declares for the mode, each with a well-formed name and the declared
// unit.
func TestPrintedMetrics(t *testing.T) {
	want := declared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, section := tiny(w), "end_to_end"
			if traced {
				section = "per_layer"
			}
			t.Run(w.name+"/"+section, func(t *testing.T) {
				var out strings.Builder
				res, err := run(w, w.config(7), t.TempDir(), 0, traced, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				for k, m := range res.Metrics {
					if !name.MatchString(k) || m.Unit == "" || m.Unit != want[section][k] {
						t.Errorf("metric %q printed with unit %q, BENCHMARK.json declares %q", k, m.Unit, want[section][k])
					}
				}
				for k := range want[section] {
					if _, ok := res.Metrics[k]; !ok {
						t.Errorf("declared metric %q not printed", k)
					}
				}
			})
		}
	}
}

// TestReduce checks the span reducer on a synthetic trace of two
// workers: a build, two rounds (the first checkpointed), and the build
// of the next fleet.
func TestReduce(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	span := func(name string, tid uint64, start, end int) obs.SpanEvent {
		return obs.SpanEvent{Name: name, TID: tid, Start: ms(start), Dur: ms(end - start)}
	}
	evs := []obs.SpanEvent{
		span(spanBuild, 2, 0, 10), span(spanBuild, 3, 1, 9),
		span(spanPlan, 2, 12, 20), span(spanPlan, 3, 12, 22),
		span(spanForecast, 1, 13, 15), span(spanOptimize, 1, 15, 16),
		span(spanForecast, 1, 14, 17), span(spanFallback, 1, 18, 19),
		span(spanApply, 2, 25, 30), span(spanApply, 3, 26, 30),
		span(spanCheckpoint, 2, 31, 35), span(spanCheckpoint, 3, 31, 34),
		span(spanPlan, 2, 36, 40), span(spanPlan, 3, 37, 41),
		// A worker that joins after the other finished is still the same call.
		span(spanApply, 2, 43, 45), span(spanApply, 3, 46, 47),
		// The next fleet's build ends the replay: no health plane after it.
		span(spanBuild, 2, 50, 52),
	}
	// The tracer returns spans in completion order, not start order.
	rand.New(rand.NewSource(1)).Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	lt := reduce(evs)
	for _, c := range []struct {
		what      string
		got, want time.Duration
	}{
		{"build wall", lt.wall[spanBuild], ms(10 + 2)},
		{"build busy", lt.busy[spanBuild], ms(18 + 2)},
		{"plan wall", lt.wall[spanPlan], ms(10 + 5)},
		{"plan busy", lt.busy[spanPlan], ms(18 + 8)},
		{"apply wall", lt.wall[spanApply], ms(5 + 4)},
		{"apply busy", lt.busy[spanApply], ms(9 + 3)},
		{"checkpoint wall", lt.wall[spanCheckpoint], ms(4)},
		{"checkpoint busy", lt.busy[spanCheckpoint], ms(7)},
		{"admission gap", lt.admitGap, ms(3 + 2)},
		{"health gap", lt.healthGap, ms(1)},
		{"forecast", lt.sum[spanForecast], ms(5)},
		{"guard self", lt.guardSelf(), ms(26 - 5 - 1 - 1)},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.what, c.got, c.want)
		}
	}
	if n := lt.count[spanForecast]; n != 2 {
		t.Errorf("forecast count = %d, want 2", n)
	}
	if got, want := lt.idle(spanPlan, 2), 1-26.0/30; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("plan idle = %v, want %v", got, want)
	}
	if got := lt.idle("missing", 2); got != 0 {
		t.Errorf("idle of a phase that never ran = %v, want 0", got)
	}
}

// TestCheck feeds check passes that break one rule each.
func TestCheck(t *testing.T) {
	cfg := tiny(workloads[1]).config(1)
	h := int64(cfg.Horizon)
	good := func() *pass {
		return &pass{tenantRounds: 10, decisions: 10, rep: &fleet.Report{
			Steps: 10 * h, Pool: &fleet.PoolReport{AdmissionClips: 1},
		}}
	}
	for _, c := range []struct {
		name   string
		mutate func(*pass)
		failed int64
	}{
		{"ok", func(*pass) {}, 0},
		{"held", func(p *pass) { p.rep.Holds = 3 }, 3},
		{"short", func(p *pass) { p.rep.Steps -= 2 * h }, 2},
		{"decisions", func(p *pass) { p.decisions-- }, 0},
		{"no clips", func(p *pass) { p.rep.Pool.AdmissionClips = 0 }, 0},
		{"restart", func(p *pass) { p.issues = []string{"restart"} }, 0},
	} {
		b := &bench{cfg: cfg}
		p := good()
		c.mutate(p)
		b.check(cfg, p)
		if b.res.Attempted != 10 || b.res.Failed != c.failed {
			t.Errorf("%s: attempted %d failed %d, want 10 and %d", c.name, b.res.Attempted, b.res.Failed, c.failed)
		}
		if (len(b.issues) == 0) != (c.name == "ok") {
			t.Errorf("%s: issues %q", c.name, b.issues)
		}
	}
}

// TestResumeCheck runs the durable kill-restart drill on a tiny fleet:
// an intact state dir passes the restart check, while one whose newest
// snapshot is truncated for every tenant, one that lost a tenant's
// namespace, or a restart compared with another replay's hash fails it.
func TestResumeCheck(t *testing.T) {
	cfg := tiny(workloads[0]).durableConfig(3)
	ref, err := fullPass(cfg)
	if err != nil {
		t.Fatal(err)
	}
	intact := func(string) {}
	truncated := func(dir string) { truncateNewest(t, dir, cfg.Tenants, cfg.Retain) }
	lost := func(dir string) {
		ns, err := persist.TenantDir(dir, fleet.TenantID(0))
		if err == nil {
			err = os.RemoveAll(ns)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		damage func(dir string)
		want   string
		issue  string
	}{
		{"intact", intact, ref.rep.FleetHash, ""},
		{"truncated", truncated, ref.rep.FleetHash, "corrupt"},
		{"lost tenant", lost, ref.rep.FleetHash, "warm-started"},
		{"other hash", intact, "0123456789abcdef", "hash"},
	} {
		dir := t.TempDir()
		half, rest := cfg, cfg
		half.MaxRounds = rounds(cfg) / 2
		half.StateDir, rest.StateDir = dir, dir
		p, err := fullPass(half)
		if err != nil {
			t.Fatal(err)
		}
		c.damage(dir)
		if err := resume(rest, p, c.want); err != nil {
			t.Fatal(err)
		}
		got := strings.Join(p.issues, "; ")
		if (c.issue == "") != (got == "") || !strings.Contains(got, c.issue) {
			t.Errorf("%s: restart check issues %q, want one about %q", c.name, got, c.issue)
		}
	}
}

// truncateNewest cuts every tenant's newest snapshot under dir in half.
func truncateNewest(t *testing.T, dir string, tenants, retain int) {
	t.Helper()
	ids, err := persist.TenantIDs(dir)
	if err != nil || len(ids) != tenants {
		t.Fatalf("tenant namespaces %v, %v", ids, err)
	}
	for _, id := range ids {
		m, err := persist.NewTenantManager(dir, id, retain)
		if err != nil {
			t.Fatal(err)
		}
		snaps := m.Snapshots()
		newest := snaps[len(snaps)-1]
		info, err := os.Stat(newest)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(newest, info.Size()/2); err != nil {
			t.Fatal(err)
		}
	}
}
