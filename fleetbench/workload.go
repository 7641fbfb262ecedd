package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"robustscale/internal/fleet"
	"robustscale/internal/obs"
	"robustscale/internal/timeseries"
)

// workload is one named fleet configuration the benchmark replays. Every
// workload runs the robust τ=0.9 planner behind the guard with the SLO
// plane and decision capture on, as cmd/fleetsim does by default, on two
// workers in one process.
type workload struct {
	name    string
	tenants int
	days    int
	// shape applies the workload's forecaster, archetypes and pool.
	shape func(*fleet.Config)
	// durableTenants and durableDays, when set, size the durable fleet
	// the traced run drills: the workload's configuration checkpointing
	// every round into a fresh state dir, killed at the mid-run round
	// boundary and restarted warm. Checkpoint writes are fsync-bound, so
	// their time follows the disk rather than the program and is
	// reported per layer only.
	durableTenants, durableDays int
}

// workloads are the benchmark's named workloads. They stress different
// layers: steady-10k the plan/apply/health loop at fleet scale (and, in
// its traced run, the checkpoint path and warm restart on 1k tenants);
// contended-2k the neural forecaster, the guard's fallback ladder, pool
// admission, quarantine and the serverless plant.
var workloads = []workload{
	{name: "steady-10k", tenants: 10000, days: 8, durableTenants: 1000, durableDays: 4},
	{name: "contended-2k", tenants: 2000, days: 8, shape: func(c *fleet.Config) {
		c.Serverless = true
		c.Forecaster = fleet.ForecasterQuantileMLP
		// 1.3 nodes per tenant sits below peak demand, so admission clips
		// a third of the rounds and quarantines flapping tenants.
		c.PoolNodes = c.Tenants * 13 / 10
	}},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config is the workload's fleet configuration for one seed.
func (w workload) config(seed int64) fleet.Config {
	return w.sized(seed, w.tenants, w.days)
}

// durableConfig is the configuration of the workload's durable drill;
// the state dir is set per drill.
func (w workload) durableConfig(seed int64) fleet.Config {
	return w.sized(seed, w.durableTenants, w.durableDays)
}

func (w workload) sized(seed int64, tenants, days int) fleet.Config {
	cfg := fleet.DefaultConfig(tenants)
	cfg.Seed = seed
	cfg.Days = days
	cfg.Workers = 2
	// The benchmark reads only fleet aggregates.
	cfg.PerTenant = false
	if w.shape != nil {
		w.shape(&cfg)
	}
	return cfg
}

// stepsPerDay is the number of trace steps in a day.
const stepsPerDay = int(24 * time.Hour / timeseries.DefaultStep)

// rounds is the number of lock-step rounds a full replay of cfg runs.
func rounds(cfg fleet.Config) int {
	return (cfg.Days - cfg.TrainDays) * stepsPerDay / cfg.Horizon
}

// pass is what one measured replay from a fresh build recorded. A full
// pass builds the fleet and replays every round; a drill pass kills a
// durable fleet at the mid-run round boundary, restarts it over its
// checkpoints and finishes the replay.
type pass struct {
	// setup is the cold-build time (fleet.New with no checkpoint).
	setup float64
	// recovery is the warm rebuild time of a drill.
	recovery float64
	// runSeconds is the wall time of the pass's replays, which ran
	// tenantRounds tenant-rounds in all.
	runSeconds   float64
	tenantRounds int64
	// heapBytes is the live heap the cold-built fleet holds.
	heapBytes float64
	// allocBytes and mallocs count heap allocation during the replay.
	allocBytes, mallocs uint64
	// decisions counts decision records captured during the replay.
	decisions uint64
	// stateBytes is the size of a drill's state dir at the end of the
	// replay.
	stateBytes int64
	// rep is the report of the pass's last replay.
	rep *fleet.Report
	// issues are failed correctness checks.
	issues []string
}

// build runs fleet.New on a collected heap and returns the controller,
// the build time and the live heap the new fleet holds.
func build(cfg fleet.Config) (*fleet.Controller, float64, float64, error) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	t0 := time.Now()
	c, err := fleet.New(cfg)
	secs := time.Since(t0).Seconds()
	if err != nil {
		return nil, 0, 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return c, secs, float64(ms.HeapAlloc) - float64(base), nil
}

// replay times c.Run and counts what it allocates and records.
func replay(c *fleet.Controller, p *pass) (*fleet.Report, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc, mallocs := ms.TotalAlloc, ms.Mallocs
	decisions := obs.DefaultDecisions.Total()
	t0 := time.Now()
	rep, err := c.Run(context.Background())
	secs := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)
	p.runSeconds += secs
	p.allocBytes += ms.TotalAlloc - alloc
	p.mallocs += ms.Mallocs - mallocs
	p.decisions += obs.DefaultDecisions.Total() - decisions
	return rep, nil
}

// fullPass builds the fleet and replays it, up to cfg.MaxRounds if set.
func fullPass(cfg fleet.Config) (*pass, error) {
	c, secs, heap, err := build(cfg)
	if err != nil {
		return nil, err
	}
	p := &pass{setup: secs, heapBytes: heap}
	if p.rep, err = replay(c, p); err != nil {
		return nil, err
	}
	p.tenantRounds = int64(cfg.Tenants) * int64(p.rep.Rounds)
	return p, nil
}

// drillPass replays a durable workload up to the mid-run round boundary
// with checkpoints in a fresh state dir under workdir, drops the
// controller, rebuilds it warm over the same dir and finishes the
// replay. The restart is checked against want, the fleet hash of an
// uninterrupted in-memory replay.
func drillPass(cfg fleet.Config, workdir, want string) (*pass, error) {
	dir, err := os.MkdirTemp(workdir, "state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	half, rest := cfg, cfg
	half.MaxRounds = rounds(cfg) / 2
	half.StateDir, rest.StateDir = dir, dir
	p, err := fullPass(half)
	if err != nil {
		return nil, err
	}
	if err := resume(rest, p, want); err != nil {
		return nil, err
	}
	if p.stateBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	return p, nil
}

// resume rebuilds the fleet over the checkpoints that p's replay up to
// the kill boundary left in cfg.StateDir, replays the remaining rounds
// and checks the restart, noting a failed check in p.issues.
func resume(cfg fleet.Config, p *pass, want string) error {
	corrupt := obs.Default.Counter("robustscale_checkpoint_corrupt_total", "").Value()
	c, secs, _, err := build(cfg)
	if err != nil {
		return err
	}
	p.recovery = secs
	if p.rep, err = replay(c, p); err != nil {
		return err
	}
	p.tenantRounds = int64(cfg.Tenants) * int64(rounds(cfg))
	corrupt = obs.Default.Counter("robustscale_checkpoint_corrupt_total", "").Value() - corrupt
	if err := checkResume(p.rep, cfg.Tenants, corrupt, want); err != nil {
		p.issues = append(p.issues, err.Error())
	}
	return nil
}

// checkResume fails a restart that did not warm-start every tenant from
// an intact checkpoint, or that did not land on the uninterrupted
// replay's fleet hash. A checkpoint that stops carrying full state fails
// here instead of getting faster.
func checkResume(rep *fleet.Report, tenants int, corrupt float64, want string) error {
	switch {
	case rep.WarmStarts != tenants:
		return fmt.Errorf("restart warm-started %d of %d tenants", rep.WarmStarts, tenants)
	case rep.CorruptSnaps != 0 || corrupt != 0:
		return fmt.Errorf("restart rejected %d corrupt snapshots (counter +%v)", rep.CorruptSnaps, corrupt)
	case rep.FleetHash != want:
		return fmt.Errorf("restarted fleet hash %s, uninterrupted replay %s", rep.FleetHash, want)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
