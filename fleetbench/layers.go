package main

import (
	"fmt"
	"sort"
	"time"

	"robustscale/internal/fleet"
	"robustscale/internal/forecast"
	"robustscale/internal/obs"
	"robustscale/internal/timeseries"
	"robustscale/internal/trace"
)

// Span names the program records. The fleet phases record one span per
// worker per call (parallel.ForEachWorkerSpan); the planner stages
// record one span per tenant-round on the control row.
const (
	spanBuild      = "fleet-build"
	spanPlan       = "fleet-plan"
	spanApply      = "fleet-apply"
	spanCheckpoint = "fleet-checkpoint"
	spanForecast   = "forecast"
	spanOptimize   = "optimize"
	spanFallback   = "guard-fallback"
)

// probeTenants is how many tenants the trace and fit probes time.
const probeTenants = 256

// phase is one call of a parallel fleet phase: the hull of its workers'
// spans and the sum of their durations.
type phase struct {
	name       string
	start, end time.Duration
	busy       time.Duration
}

// layerTimes is a traced replay reduced to per-layer totals.
type layerTimes struct {
	// wall and busy are the summed hull and worker time of each fleet
	// phase's calls.
	wall, busy map[string]time.Duration
	// admitGap is the time between each plan call's end and the next
	// apply call's start: the sequential admission barrier. healthGap is
	// the time between an apply call's end and the next plan or
	// checkpoint call's start: the health plane. The last round of a
	// replay has no next call, so its health plane is not counted.
	admitGap, healthGap time.Duration
	// sum and count total the remaining spans by name.
	sum   map[string]time.Duration
	count map[string]int
}

// reduce merges the per-worker spans of the fleet phases into one
// interval per call and totals every span by name. Spans are grouped
// into calls by start order: consecutive spans of one phase belong to
// one call, because every call of a phase returns before the next phase
// starts and the controller never calls one phase twice in a row.
func reduce(evs []obs.SpanEvent) layerTimes {
	lt := layerTimes{
		wall: map[string]time.Duration{}, busy: map[string]time.Duration{},
		sum: map[string]time.Duration{}, count: map[string]int{},
	}
	var ph []obs.SpanEvent
	for _, e := range evs {
		switch e.Name {
		case spanBuild, spanPlan, spanApply, spanCheckpoint:
			ph = append(ph, e)
		default:
			lt.sum[e.Name] += e.Dur
			lt.count[e.Name]++
		}
	}
	sort.SliceStable(ph, func(i, j int) bool { return ph[i].Start < ph[j].Start })
	var calls []phase
	for _, e := range ph {
		end := e.Start + e.Dur
		if n := len(calls); n > 0 && calls[n-1].name == e.Name {
			c := &calls[n-1]
			c.end = max(c.end, end)
			c.busy += e.Dur
			continue
		}
		calls = append(calls, phase{name: e.Name, start: e.Start, end: end, busy: e.Dur})
	}
	for i, c := range calls {
		lt.wall[c.name] += c.end - c.start
		lt.busy[c.name] += c.busy
		if i+1 == len(calls) {
			break
		}
		next := calls[i+1]
		switch {
		case c.name == spanPlan && next.name == spanApply:
			lt.admitGap += next.start - c.end
		case c.name == spanApply && (next.name == spanPlan || next.name == spanCheckpoint):
			lt.healthGap += next.start - c.end
		}
	}
	return lt
}

// guardSelf is the planning workers' busy time outside the forecaster,
// the optimizer and the guard's fallback ladder: the guard's own checks
// and repairs plus the plan phase's per-tenant bookkeeping.
func (lt layerTimes) guardSelf() time.Duration {
	return lt.busy[spanPlan] - lt.sum[spanForecast] - lt.sum[spanOptimize] - lt.sum[spanFallback]
}

// idle is the share of a phase's worker time spent waiting:
// 1 - busy / (wall * workers); 0 when the phase never ran.
func (lt layerTimes) idle(name string, workers int) float64 {
	if lt.wall[name] == 0 {
		return 0
	}
	return 1 - lt.busy[name].Seconds()/(lt.wall[name].Seconds()*float64(workers))
}

// traced runs fn with obs.DefaultTracer swapped for a tracer that holds
// every span a replay of cfg can record, and reduces the spans; a
// dropped span fails the run.
func (b *bench) traced(cfg fleet.Config, fn func() (*pass, error)) (*pass, layerTimes, error) {
	// At most three planner spans per tenant-round, plus one span per
	// worker for each phase call: two builds and up to four calls a round.
	n := rounds(cfg)
	tr := obs.NewTracer(3*cfg.Tenants*n + (2+4*n)*cfg.Workers)
	saved := obs.DefaultTracer
	obs.DefaultTracer = tr
	tr.SetEnabled(true)
	p, err := fn()
	tr.SetEnabled(false)
	obs.DefaultTracer = saved
	if err != nil {
		return nil, layerTimes{}, err
	}
	if d := tr.Dropped(); d > 0 {
		b.fail("tracer dropped %d of %d spans", d, tr.Total())
	}
	fmt.Fprintf(b.out, "traced %d tenants: %d spans, %d dropped\n", cfg.Tenants, tr.Total(), tr.Dropped())
	return p, reduce(tr.Events()), nil
}

// layers makes one untraced and one traced pass, both checked against
// the seed's fleet hash, times the probes and reports the per-layer
// metrics.
func (b *bench) layers() error {
	base, err := b.measuredPass()
	if err != nil {
		return err
	}
	traced, lt, err := b.traced(b.cfg, b.measuredPass)
	if err != nil {
		return err
	}
	genMS, trains, err := probeTraces(b.cfg, min(b.cfg.Tenants, probeTenants))
	if err != nil {
		return err
	}
	fitMS, err := probeFit(b.cfg, trains)
	if err != nil {
		return err
	}

	workers := b.cfg.Workers
	rep, tenantRounds := traced.rep, float64(traced.tenantRounds)
	sec := func(name string, d time.Duration) { b.set(name, "s", d.Seconds()) }
	b.set("trace.generate_ms_per_tenant", "ms", genMS)
	sec("fleet.build_busy_s", lt.busy[spanBuild])
	b.set("forecast.fit_ms_per_tenant", "ms", fitMS)
	sec("forecast.predict_s", lt.sum[spanForecast])
	b.set("forecast.predict_calls", "count", float64(lt.count[spanForecast]))
	sec("optimize.s", lt.sum[spanOptimize])
	sec("scaler.plan_busy_s", lt.busy[spanPlan])
	sec("scaler.guard_self_s", lt.guardSelf())
	sec("scaler.guard_fallback_s", lt.sum[spanFallback])
	b.set("scaler.guard_fallback_frac", "fraction", float64(lt.count[spanFallback])/tenantRounds)
	sec("fleet.plan_wall_s", lt.wall[spanPlan])
	sec("fleet.apply_wall_s", lt.wall[spanApply])
	sec("fleet.apply_busy_s", lt.busy[spanApply])
	sec("fleet.admit_wall_s", lt.admitGap)
	var clips, quarantines int64
	if rep.Pool != nil {
		clips, quarantines = rep.Pool.AdmissionClips, int64(rep.Pool.Quarantines)
	}
	b.set("fleet.admit_clips", "count", float64(clips))
	b.set("fleet.quarantines", "count", float64(quarantines))
	// Allocation counts come from the untraced pass: the tracer's ring is
	// allocated during the traced one.
	b.set("fleet.alloc_bytes_per_tenant_round", "bytes", float64(base.allocBytes)/float64(base.tenantRounds))
	b.set("fleet.mallocs_per_tenant_round", "count", float64(base.mallocs)/float64(base.tenantRounds))
	var wakes, parked int64
	if rep.Serverless != nil {
		wakes, parked = rep.Serverless.Wakes, rep.Serverless.ParkedSteps
	}
	b.set("cluster.wakes", "count", float64(wakes))
	b.set("cluster.parked_steps", "count", float64(parked))
	sec("obs.health_wall_s", lt.healthGap)
	b.set("obs.decisions", "count", float64(traced.decisions))
	b.set("obs.trace_overhead_frac", "fraction", traced.runSeconds/base.runSeconds-1)
	b.set("parallel.plan_idle_frac", "fraction", lt.idle(spanPlan, workers))
	b.set("parallel.apply_idle_frac", "fraction", lt.idle(spanApply, workers))
	return b.persistLayer()
}

// persistLayer drills the workload's durable fleet under the tracer and
// reports the persist metrics; a workload without one reports zeros. The
// restart must land on the fleet hash of an untimed, uninterrupted
// in-memory replay of the same configuration.
func (b *bench) persistLayer() error {
	var wall, busy time.Duration
	var warm, writes, writeMS, bytes, corrupt, replayUS float64
	if b.w.durableTenants > 0 {
		cfg := b.w.durableConfig(b.cfg.Seed)
		ref, err := fullPass(cfg)
		if err != nil {
			return err
		}
		b.check(cfg, ref)
		writesC := obs.Default.Counter("robustscale_checkpoint_writes_total", "")
		corruptC := obs.Default.Counter("robustscale_checkpoint_corrupt_total", "")
		writeSecs := obs.Default.Histogram("robustscale_checkpoint_write_seconds", "", nil)
		writes0, corrupt0 := writesC.Value(), corruptC.Value()
		n0, sum0 := writeSecs.Count(), writeSecs.Sum()
		p, lt, err := b.traced(cfg, func() (*pass, error) { return drillPass(cfg, b.workdir, ref.rep.FleetHash) })
		if err != nil {
			return err
		}
		b.check(cfg, p)
		wall, busy, warm = lt.wall[spanCheckpoint], lt.busy[spanCheckpoint], p.recovery
		writes, corrupt = writesC.Value()-writes0, corruptC.Value()-corrupt0
		if n := writeSecs.Count() - n0; n > 0 {
			writeMS = (writeSecs.Sum() - sum0) / float64(n) * 1e3
		}
		bytes = float64(p.stateBytes) / float64(cfg.Tenants)
		replayUS = p.runSeconds / float64(p.tenantRounds) * 1e6
	}
	b.set("persist.checkpoint_wall_s", "s", wall.Seconds())
	b.set("persist.checkpoint_busy_s", "s", busy.Seconds())
	b.set("persist.writes", "count", writes)
	b.set("persist.write_ms_mean", "ms", writeMS)
	b.set("persist.bytes_per_tenant", "bytes", bytes)
	b.set("persist.corrupt", "count", corrupt)
	b.set("persist.warm_restart_s", "s", warm)
	b.set("persist.replay_us_per_tenant_round", "us", replayUS)
	return nil
}

// probeTraces times trace synthesis (trace.Generate plus Series) for n
// tenants of the workload's archetypes, units and days, and returns the
// mean time per tenant with the tenants' training windows.
func probeTraces(cfg fleet.Config, n int) (float64, []*timeseries.Series, error) {
	trains := make([]*timeseries.Series, n)
	t0 := time.Now()
	for i := range trains {
		tc := archetype(cfg, i)
		tr, err := trace.Generate(tc)
		if err != nil {
			return 0, nil, err
		}
		s, err := tr.Series(trace.CPU)
		if err != nil {
			return 0, nil, err
		}
		trains[i] = s.Slice(0, cfg.TrainDays*stepsPerDay)
	}
	return time.Since(t0).Seconds() * 1e3 / float64(n), trains, nil
}

// archetype is the trace configuration of tenant i, built as the fleet
// builds it: alternating Alibaba/Google archetypes (serverless/decaying
// on a serverless fleet), CPU only, with the fleet's units and days.
func archetype(cfg fleet.Config, i int) trace.Config {
	seed := cfg.Seed*1_000_003 + int64(i)
	var tc trace.Config
	switch {
	case cfg.Serverless && i%2 == 0:
		tc = trace.ServerlessStyle(seed)
	case cfg.Serverless:
		tc = trace.DecayingStyle(seed)
	case i%2 == 0:
		tc = trace.AlibabaStyle(seed)
	default:
		tc = trace.GoogleStyle(seed)
	}
	tc.Units, tc.Days = cfg.Units, cfg.Days
	tc.Resources = []trace.Resource{trace.CPU}
	return tc
}

// probeFit times fitting the workload's forecaster on each training
// window and returns the mean time per tenant. The quantile MLP uses the
// fleet's per-tenant dimensions and trains for the fleet horizon.
func probeFit(cfg fleet.Config, trains []*timeseries.Series) (float64, error) {
	t0 := time.Now()
	for i, train := range trains {
		var err error
		switch cfg.Forecaster {
		case fleet.ForecasterQuantileMLP:
			mc := forecast.DefaultMLPConfig()
			mc.Context, mc.Hidden, mc.Epochs, mc.MaxWindows = 36, 12, 2, 64
			mc.Seed = cfg.Seed + int64(i)
			err = forecast.NewQuantileMLP(mc, forecast.ScalingLevels).FitHorizon(train, cfg.Horizon)
		default:
			err = forecast.NewSeasonalNaive(stepsPerDay).Fit(train)
		}
		if err != nil {
			return 0, fmt.Errorf("fit probe: %w", err)
		}
	}
	return time.Since(t0).Seconds() * 1e3 / float64(len(trains)), nil
}
