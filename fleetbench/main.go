// Command fleetbench is the repository's fleet benchmark: it replays a
// named multi-tenant workload through fleet.New and
// (*fleet.Controller).Run, checks the outcome, and prints every metric by
// name with its unit.
//
// Usage (from the checkout root, through the wrapper that builds it):
//
//	bash fleetbench/run.sh --workload steady-10k --seed 1 --seconds 30 --trace 0
//
// The replay is a closed, lock-step batch: every round waits for the
// previous one, so throughput is work done at the workload's fleet size,
// not an arrival rate. With --trace 0 the run repeats whole replays for
// about --seconds seconds, each from a fresh build, and prints the
// end-to-end metrics (medians over the replays, means for the decision
// latency percentiles). With --trace 1 it makes one untraced and one
// traced replay and prints the per-layer metrics, reduced from the
// program's own spans plus timed probes of the layers that record none;
// for steady-10k it also drills a durable 1k-tenant fleet through a
// kill-restart for the persist layer's metrics.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. attempted counts tenant-rounds;
// failed counts held or errored tenant-rounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"robustscale/internal/fleet"
	"robustscale/internal/obs"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name (steady-10k, contended-2k)")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same fleet")
		seconds = flag.Float64("seconds", 50, "how long the untraced run measures")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced replay")
		workdir = flag.String("workdir", ".", "directory for checkpoint state dirs")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(2)
	}
	res, err := run(w, w.config(*seed), *workdir, time.Duration(*seconds*float64(time.Second)), *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %s: %v\n", w.name, err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: encoding result: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench accumulates one invocation's passes, checks and metrics.
type bench struct {
	w       workload
	cfg     fleet.Config
	workdir string
	out     io.Writer
	// hash is the fleet hash every full replay of cfg must reach.
	hash   string
	res    result
	issues []string
}

// run measures workload w on cfg and returns the result line. Errors
// from the program (a failed build or replay) are returned; failed
// correctness checks only clear res.Correct.
func run(w workload, cfg fleet.Config, workdir string, budget time.Duration, traced bool, out io.Writer) (*result, error) {
	obs.DefaultDecisions.SetEnabled(true)
	b := &bench{w: w, cfg: cfg, workdir: workdir, out: out, res: result{Metrics: map[string]metric{}}}
	fmt.Fprintf(out, "workload %s: %d tenants, %d rounds, seed %d, workers %d\n",
		w.name, cfg.Tenants, rounds(cfg), cfg.Seed, cfg.Workers)
	var err error
	if traced {
		err = b.layers()
	} else {
		err = b.endToEnd(budget)
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "fleet_hash %s\n", b.hash)
	fmt.Fprintf(out, "failed_frac %g (%d of %d tenant-rounds)\n",
		float64(b.res.Failed)/float64(b.res.Attempted), b.res.Failed, b.res.Attempted)
	for _, s := range b.issues {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", s)
	}
	b.res.Correct = len(b.issues) == 0
	return &b.res, nil
}

func (b *bench) fail(format string, args ...any) {
	b.issues = append(b.issues, fmt.Sprintf(format, args...))
}

// set records one metric.
func (b *bench) set(name, unit string, v float64) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// check verifies one pass over cfg and adds its tenant-rounds to the
// attempted and failed counts: every tenant replays every round of the
// pass without a hold and records one decision per round, and a pooled
// fleet's admission clips at least one plan.
func (b *bench) check(cfg fleet.Config, p *pass) {
	b.issues = append(b.issues, p.issues...)
	rep, h := p.rep, int64(cfg.Horizon)
	failed := p.tenantRounds - rep.Steps/h + rep.Holds
	failed = max(0, min(failed, p.tenantRounds))
	b.res.Attempted += p.tenantRounds
	b.res.Failed += failed
	if rep.Steps != p.tenantRounds*h {
		b.fail("replayed %d tenant-steps, want %d", rep.Steps, p.tenantRounds*h)
	}
	if failed > 0 {
		b.fail("%d of %d tenant-rounds held or errored", failed, p.tenantRounds)
	}
	if p.decisions != uint64(p.tenantRounds) {
		b.fail("captured %d decisions for %d tenant-rounds", p.decisions, p.tenantRounds)
	}
	if cfg.PoolNodes > 0 && (rep.Pool == nil || rep.Pool.AdmissionClips == 0) {
		b.fail("pool of %d nodes never clipped a plan: admission is not exercised", cfg.PoolNodes)
	}
}

// measuredPass runs and checks one full pass of the workload; every
// full replay of a seed must reach the same fleet hash.
func (b *bench) measuredPass() (*pass, error) {
	p, err := fullPass(b.cfg)
	if err != nil {
		return nil, err
	}
	b.check(b.cfg, p)
	if b.hash == "" {
		b.hash = p.rep.FleetHash
	} else if p.rep.FleetHash != b.hash {
		b.fail("fleet hash %s differs from %s of an earlier replay of the seed", p.rep.FleetHash, b.hash)
	}
	return p, nil
}

// endToEnd repeats full passes for about budget and reports the
// end-to-end metrics as medians (decision latency: means) over them. A
// pass starts only if one as long as the last fits in the remaining
// budget, so a run takes about budget however fast the machine is; the
// first two passes always run.
func (b *bench) endToEnd(budget time.Duration) error {
	start := time.Now()
	var passes []*pass
	var last time.Duration
	for len(passes) < 2 || time.Since(start)+last <= budget {
		t0 := time.Now()
		p, err := b.measuredPass()
		if err != nil {
			return err
		}
		last = time.Since(t0)
		passes = append(passes, p)
		fmt.Fprintf(b.out, "pass %d: build %.3fs, replay %.3fs over %d tenant-rounds\n",
			len(passes), p.setup, p.runSeconds, p.tenantRounds)
	}
	var setups, roundUS, p50, p99, heap []float64
	for _, p := range passes {
		setups = append(setups, p.setup)
		heap = append(heap, p.heapBytes/float64(b.cfg.Tenants))
		roundUS = append(roundUS, p.runSeconds/float64(p.tenantRounds)*1e6)
		p50 = append(p50, p.rep.Timing.P50Millis*1e3)
		p99 = append(p99, p.rep.Timing.P99Millis*1e3)
	}
	rep := passes[len(passes)-1].rep
	fmt.Fprintf(b.out, "%d passes (decision latency over n = %d tenant-rounds each) in %.1fs\n",
		len(passes), rep.Timing.Samples, time.Since(start).Seconds())
	b.set("setup_s", "s", median(setups))
	b.set("round_us_per_tenant", "us", median(roundUS))
	// The report's percentiles come from a sketch with 2%-wide buckets, so
	// a median of them repeats one bucket exactly; the mean keeps the
	// resolution.
	b.set("decision_p50_us", "us", mean(p50))
	b.set("decision_p99_us", "us", mean(p99))
	b.set("heap_bytes_per_tenant", "bytes", median(heap))
	b.set("violation_rate", "fraction", rep.ViolationRate)
	b.set("cost_nodes_per_step", "nodes", float64(rep.CostNodeSteps)/float64(rep.Steps))
	return nil
}

// mean is the arithmetic mean; 0 for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median is the middle value (mean of the middle two); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
