// Command qosbench is the perf-regression gate: it re-runs the
// simulator's raw-throughput scenarios in-process and compares the
// measured events_per_sec and mallocs_per_event against the committed
// BENCH_<scenario>.json baselines, exiting non-zero when a scenario
// regresses beyond the tolerance.
//
// The scalar scenarios mirror the Go benchmarks that write the baselines
// (BenchmarkSimulationRate and friends): the full-load Advanced
// configuration on the 16-host Clos, bare (simrate), with 2% lifecycle
// tracing (simrate_traced), and with the live metrics plane
// (simrate_metrics). The parsim scenario re-runs the paper-scale sharded
// reference and gates on ns_per_op per shard count.
//
// Throughput gating is only meaningful on a machine that resembles the
// baseline's: the gate refuses to run with GOMAXPROCS <= 1 unless
// -allow-single-cpu is given, and each scenario takes the best of -iters
// repetitions to shave scheduler noise.
//
// With -before and -after, qosbench instead diffs two result snapshots
// written by qosim -json: it prints every metric that moved beyond
// -tolerance and exits non-zero when there is one.
//
// Examples:
//
//	qosbench                           # gate simrate scenarios, 25% tolerance
//	qosbench -max-regress 0.4 -iters 7
//	qosbench -scenarios simrate,parsim
//	qosbench -selftest-slowdown 2      # must exit non-zero (gate self-test)
//	qosbench -before before.json -after after.json -tolerance 0.1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/cli"
	"deadlineqos/internal/metrics"
	"deadlineqos/internal/network"
	"deadlineqos/internal/report"
	"deadlineqos/internal/stats"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
)

// benchResult mirrors the BENCH_<scenario>.json schema written by the
// repository's Go benchmarks (see bench_test.go).
type benchResult struct {
	Scenario        string  `json:"scenario"`
	N               int     `json:"n"`
	NsPerOp         float64 `json:"ns_per_op"`
	EventsPerOp     float64 `json:"events_per_op"`
	EventsPerSec    float64 `json:"events_per_sec"`
	MallocsPerEvent float64 `json:"mallocs_per_event"`
}

// parsimBench mirrors BENCH_parsim.json.
type parsimBench struct {
	Scenario   string `json:"scenario"`
	Topology   string `json:"topology"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Runs       []struct {
		Shards  int     `json:"shards"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"runs"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qosbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scenarios  = flag.String("scenarios", "simrate,simrate_traced,simrate_metrics", "comma-separated scenarios to gate: simrate|simrate_traced|simrate_metrics|parsim")
		baseDir    = flag.String("baseline-dir", ".", "directory holding the committed BENCH_<scenario>.json baselines")
		maxRegress = flag.Float64("max-regress", 0.25, "tolerated fractional regression (0.25 = fail below 75% of baseline throughput)")
		iters      = flag.Int("iters", 5, "measurement repetitions per scenario (best run gates)")
		slowdown   = flag.Float64("selftest-slowdown", 0, "divide the measured throughput by this factor before gating (>1 simulates a regression; the gate must then fail)")
		allowOne   = flag.Bool("allow-single-cpu", false, "run even with GOMAXPROCS <= 1 (throughput baselines are meaningless there)")
		before     = flag.String("before", "", "diff mode: baseline snapshot (from qosim -json)")
		after      = flag.String("after", "", "diff mode: candidate snapshot")
		tolerance  = flag.Float64("tolerance", 0.10, "diff mode: relative change beyond which a metric is flagged")
		prof       = cli.ProfileFlags()
	)
	flag.Parse()
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()

	if *before != "" || *after != "" {
		return diffSnapshots(*before, *after, *tolerance)
	}
	if p := runtime.GOMAXPROCS(0); p <= 1 && !*allowOne {
		return fmt.Errorf("GOMAXPROCS=%d: single-CPU throughput is not comparable to the committed baselines (override with -allow-single-cpu)", p)
	}
	if *iters < 1 {
		*iters = 1
	}
	if *slowdown != 0 && *slowdown < 1 {
		return fmt.Errorf("-selftest-slowdown %v must be >= 1", *slowdown)
	}

	failed := 0
	for _, sc := range strings.Split(*scenarios, ",") {
		sc = strings.TrimSpace(sc)
		if sc == "" {
			continue
		}
		var err error
		if sc == "parsim" {
			err = gateParsim(*baseDir, *maxRegress, *slowdown)
		} else {
			err = gateScalar(sc, *baseDir, *maxRegress, *iters, *slowdown)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "qosbench: %s: %v\n", sc, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d scenario(s) regressed", failed)
	}
	fmt.Println("qosbench: all scenarios within tolerance")
	return nil
}

// scalarConfig builds one scenario's network configuration (the same
// shape the Go benchmarks measure).
func scalarConfig(scenario string, seed uint64) (network.Config, error) {
	cfg := network.SmallConfig()
	cfg.Arch = arch.Advanced2VC
	cfg.Load = 1.0
	cfg.WarmUp = 0
	cfg.Measure = 2 * units.Millisecond
	cfg.Seed = seed
	switch scenario {
	case "simrate":
	case "simrate_traced":
		cfg.TrackOrderErrors = true
		tr, err := trace.New(trace.Config{SampleRate: 0.02, Seed: seed})
		if err != nil {
			return cfg, err
		}
		cfg.Tracer = tr
	case "simrate_metrics":
		cfg.Metrics = metrics.NewRegistry()
	default:
		return cfg, fmt.Errorf("unknown scenario (want simrate|simrate_traced|simrate_metrics|parsim)")
	}
	return cfg, nil
}

// gateScalar measures one scalar scenario and compares it to its
// baseline file.
func gateScalar(scenario, dir string, tol float64, iters int, slowdown float64) error {
	base, err := readBaseline(filepath.Join(dir, "BENCH_"+scenario+".json"))
	if err != nil {
		return err
	}
	if base.EventsPerSec <= 0 {
		return fmt.Errorf("baseline has no events_per_sec")
	}
	var bestRate, bestAllocs float64
	for i := 0; i < iters; i++ {
		cfg, err := scalarConfig(scenario, uint64(i+1))
		if err != nil {
			return err
		}
		res, err := network.Run(cfg)
		if err != nil {
			return err
		}
		pf := res.Perf
		if pf.EventsPerSec > bestRate {
			bestRate, bestAllocs = pf.EventsPerSec, pf.MallocsPerEvent
		}
	}
	if slowdown > 0 {
		bestRate /= slowdown
	}
	ratio := bestRate / base.EventsPerSec
	fmt.Printf("qosbench: %-16s %10.0f ev/s vs baseline %10.0f (%.2fx), %.3f allocs/ev vs %.3f\n",
		scenario, bestRate, base.EventsPerSec, ratio, bestAllocs, base.MallocsPerEvent)
	if ratio < 1-tol {
		return fmt.Errorf("throughput %.0f ev/s is %.1f%% of baseline %.0f (floor %.1f%%)",
			bestRate, 100*ratio, base.EventsPerSec, 100*(1-tol))
	}
	// Allocation pressure gates with the same tolerance plus a small
	// absolute slack so near-zero baselines don't trip on jitter.
	if base.MallocsPerEvent > 0 && bestAllocs > base.MallocsPerEvent*(1+tol)+0.05 {
		return fmt.Errorf("allocation pressure %.3f allocs/ev exceeds baseline %.3f by more than %.0f%%",
			bestAllocs, base.MallocsPerEvent, 100*tol)
	}
	return nil
}

// gateParsim re-runs the paper-scale sharded reference at the baseline's
// shard counts and gates on ns_per_op per row.
func gateParsim(dir string, tol float64, slowdown float64) error {
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_parsim.json"))
	if err != nil {
		return err
	}
	var base parsimBench
	if err := json.Unmarshal(raw, &base); err != nil {
		return err
	}
	if len(base.Runs) == 0 {
		return fmt.Errorf("baseline has no runs")
	}
	cfg := network.DefaultConfig()
	cfg.Arch = arch.Advanced2VC
	cfg.Load = 1.0
	cfg.WarmUp = 0
	cfg.Measure = 3 * units.Millisecond
	cfg.Seed = 1
	for _, run := range base.Runs {
		if run.NsPerOp <= 0 {
			continue
		}
		c := cfg
		c.Shards = run.Shards
		n, err := network.New(c)
		if err != nil {
			return err
		}
		res := n.Run()
		ns := float64(res.Perf.WallNs)
		if slowdown > 0 {
			ns *= slowdown
		}
		ratio := ns / run.NsPerOp
		fmt.Printf("qosbench: parsim shards=%d %12.0f ns vs baseline %12.0f (%.2fx)\n",
			run.Shards, ns, run.NsPerOp, ratio)
		if ratio > 1+tol {
			return fmt.Errorf("shards=%d wall %v is %.1f%% of baseline (ceiling %.1f%%)",
				run.Shards, units.Time(ns), 100*ratio, 100*(1+tol))
		}
	}
	return nil
}

// diffSnapshots compares two qosim -json snapshots and prints every
// metric that moved more than tol, failing when one did.
func diffSnapshots(beforePath, afterPath string, tol float64) error {
	if beforePath == "" || afterPath == "" {
		return fmt.Errorf("both -before and -after are required")
	}
	if tol <= 0 {
		return fmt.Errorf("tolerance must be positive")
	}
	before, err := readSnapshot(beforePath)
	if err != nil {
		return err
	}
	after, err := readSnapshot(afterPath)
	if err != nil {
		return err
	}
	deltas := stats.Compare(before, after, tol)
	if len(deltas) == 0 {
		fmt.Printf("no metric moved more than %.0f%% between %q and %q\n",
			100*tol, before.Label, after.Label)
		return nil
	}
	t := report.NewTable(
		fmt.Sprintf("metric changes beyond %.0f%% (%q -> %q)", 100*tol, before.Label, after.Label),
		"class", "metric", "before", "after", "change")
	for _, d := range deltas {
		t.Add(d.Class, d.Metric,
			fmt.Sprintf("%.4g", d.Before),
			fmt.Sprintf("%.4g", d.After),
			fmt.Sprintf("%+.1f%%", 100*d.Rel))
	}
	fmt.Println(t)
	return fmt.Errorf("%d metric(s) moved beyond the tolerance", len(deltas))
}

// readSnapshot loads one qosim -json snapshot.
func readSnapshot(path string) (*stats.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return stats.ReadSnapshot(f)
}

// readBaseline loads one scalar BENCH_<scenario>.json.
func readBaseline(path string) (*benchResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchResult
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}
