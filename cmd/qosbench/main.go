// Command qosbench is the perf-regression gate and the only writer of
// its baselines. It runs the simulator's raw-throughput scenarios
// in-process and compares each with its BENCH_<scenario>.json, exiting
// non-zero when a scenario regresses beyond the tolerance; with -write
// it stores the same measurement as the new baseline instead.
//
// The scenarios are the full-load Advanced configuration on the 16-host
// Clos, bare (simrate), with 2% lifecycle tracing (simrate_traced) and
// with the live metrics plane (simrate_metrics), gated on engine
// events/s and mallocs/event; and the paper-scale 128-host MIN at 1/2/4/8
// shards (parsim), gated on engine wall time per shard count. Every
// throughput and wall-time reading is the best of -iters runs of the
// engines alone (Results.Perf), set-up excluded; mallocs/event is the
// total over all -iters runs. The gate and -write take both through the
// same code.
//
// Throughput gating is only meaningful on a machine that resembles the
// baseline's: qosbench refuses to gate or write with GOMAXPROCS <= 1
// unless -allow-single-cpu is given. Each baseline records the host's
// GOMAXPROCS, CPU count, OS, architecture and Go version.
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
//	qosbench -write -scenarios parsim  # rewrite BENCH_parsim.json
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

// A scenario is one gated configuration. A sharded scenario runs at each
// of its shard counts; the others run once at the configuration's own.
type scenario struct {
	name   string
	shards []int
	config func(seed uint64) (network.Config, error)
}

// clos16 is the simrate configuration: the 16-host Clos at full load.
func clos16(seed uint64) network.Config {
	cfg := network.SmallConfig()
	cfg.Arch = arch.Advanced2VC
	cfg.Load = 1.0
	cfg.WarmUp = 0
	cfg.Measure = 2 * units.Millisecond
	cfg.Seed = seed
	return cfg
}

// scenarios is the table the gate and -write share. The simrate runs
// take seeds 1..iters; parsim replays seed 1, the same work every time,
// so its fastest run is the cleanest wall-time reading.
var scenarios = []scenario{
	{name: "simrate", config: func(seed uint64) (network.Config, error) { return clos16(seed), nil }},
	{name: "simrate_traced", config: func(seed uint64) (network.Config, error) {
		cfg := clos16(seed)
		cfg.TrackOrderErrors = true
		tr, err := trace.New(trace.Config{SampleRate: 0.02, Seed: seed})
		cfg.Tracer = tr
		return cfg, err
	}},
	{name: "simrate_metrics", config: func(seed uint64) (network.Config, error) {
		cfg := clos16(seed)
		cfg.Metrics = metrics.NewRegistry()
		return cfg, nil
	}},
	{name: "parsim", shards: []int{1, 2, 4, 8}, config: func(uint64) (network.Config, error) {
		cfg := network.DefaultConfig() // paper-scale MIN
		cfg.Arch = arch.Advanced2VC
		cfg.Load = 1.0
		cfg.WarmUp = 0
		cfg.Measure = 3 * units.Millisecond
		cfg.Seed = 1
		return cfg, nil
	}},
}

// baseline is the schema of every BENCH_<scenario>.json: the host that
// measured it and one row per shard count.
type baseline struct {
	Scenario   string `json:"scenario"`
	Topology   string `json:"topology"`
	Iters      int    `json:"iters"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	Runs       []row  `json:"runs"`
}

// row is the best of iters runs at one shard count, the one with the
// highest engine events/s, except MallocsPerEvent: the seed, not the run,
// fixes how much a run allocates, so it is the mallocs of all iters runs
// over their events, not the fastest seed's. Event counts differ across
// shard counts (a cross-shard hop is an event on both engines), so
// Speedup compares wall times: the first row's over this one's.
type row struct {
	Shards          int     `json:"shards"`
	Events          uint64  `json:"events"`
	WallNs          int64   `json:"wall_ns"`
	EventsPerSec    float64 `json:"events_per_sec"`
	MallocsPerEvent float64 `json:"mallocs_per_event"`
	Speedup         float64 `json:"speedup"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qosbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		names      = flag.String("scenarios", "simrate,simrate_traced,simrate_metrics", "comma-separated scenarios to gate: simrate|simrate_traced|simrate_metrics|parsim")
		baseDir    = flag.String("baseline-dir", ".", "directory holding the committed BENCH_<scenario>.json baselines")
		write      = flag.Bool("write", false, "measure the scenarios and write their baselines into -baseline-dir instead of gating")
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
	if *slowdown != 0 && (*slowdown < 1 || *write) {
		return fmt.Errorf("-selftest-slowdown %v must be >= 1 and gates only", *slowdown)
	}

	failed := 0
	for _, name := range strings.Split(*names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if err := gateOrWrite(name, *baseDir, *write, *maxRegress, *iters, *slowdown); err != nil {
			fmt.Fprintf(os.Stderr, "qosbench: %s: %v\n", name, err)
			failed++
		}
	}
	switch {
	case failed > 0 && *write:
		return fmt.Errorf("%d baseline(s) not written", failed)
	case failed > 0:
		return fmt.Errorf("%d scenario(s) regressed", failed)
	case *write:
		fmt.Printf("qosbench: baselines written to %s\n", *baseDir)
	default:
		fmt.Println("qosbench: all scenarios within tolerance")
	}
	return nil
}

// gateOrWrite measures one scenario and either writes the reading as its
// baseline or gates it against the baseline already there.
func gateOrWrite(name, dir string, write bool, tol float64, iters int, slowdown float64) error {
	var sc *scenario
	for i := range scenarios {
		if scenarios[i].name == name {
			sc = &scenarios[i]
		}
	}
	if sc == nil {
		return fmt.Errorf("unknown scenario (want simrate|simrate_traced|simrate_metrics|parsim)")
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	var base baseline
	if !write {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &base); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	got, err := measure(sc, iters)
	if err != nil {
		return err
	}
	if !write {
		return gate(got, base, sc.shards != nil, tol, slowdown)
	}
	data, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range got.Runs {
		fmt.Printf("qosbench: %-16s shards=%d %10.0f ev/s, %.3f allocs/ev, %v (%.2fx)\n",
			name, r.Shards, r.EventsPerSec, r.MallocsPerEvent, units.Time(r.WallNs), r.Speedup)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// measure runs the scenario iters times at each shard count and keeps
// the run with the highest engine events/s per count, with the
// mallocs/event of all the runs together.
func measure(sc *scenario, iters int) (baseline, error) {
	b := baseline{Scenario: sc.name, Iters: iters, GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version()}
	counts := sc.shards
	if counts == nil {
		counts = []int{0} // the configuration's own: sequential
	}
	for _, shards := range counts {
		var best trace.Profile
		var mallocs, events uint64
		for i := 0; i < iters; i++ {
			cfg, err := sc.config(uint64(i + 1))
			if err != nil {
				return b, err
			}
			if shards > 0 {
				cfg.Shards = shards
			}
			res, err := network.Run(cfg)
			if err != nil {
				return b, err
			}
			if i == 0 || res.Perf.EventsPerSec > best.EventsPerSec {
				best = res.Perf
			}
			mallocs += res.Perf.Mallocs
			events += res.Perf.Events
			b.Topology = cfg.Topology.Name()
		}
		r := row{Shards: max(shards, 1), Events: best.Events, WallNs: best.WallNs,
			EventsPerSec: best.EventsPerSec, Speedup: 1}
		if events > 0 {
			r.MallocsPerEvent = float64(mallocs) / float64(events)
		}
		if len(b.Runs) > 0 && r.WallNs > 0 {
			r.Speedup = float64(b.Runs[0].WallNs) / float64(r.WallNs)
		}
		b.Runs = append(b.Runs, r)
	}
	return b, nil
}

// gate compares a measurement with its baseline row by row. A sharded
// scenario fails when a row's wall time exceeds its baseline's by more
// than tol; the others when events/s falls below 1-tol of the baseline's
// or mallocs/event rises above it by more than tol plus a small absolute
// slack, so near-zero baselines don't trip on jitter. A slowdown > 0
// scales the measurement first, as a synthetic regression.
func gate(got, base baseline, sharded bool, tol, slowdown float64) error {
	if len(base.Runs) != len(got.Runs) {
		return fmt.Errorf("baseline has %d rows, the scenario measures %d (rewrite it with -write)", len(base.Runs), len(got.Runs))
	}
	for i, b := range base.Runs {
		g := got.Runs[i]
		if b.Shards != g.Shards || b.WallNs <= 0 || b.EventsPerSec <= 0 {
			return fmt.Errorf("baseline row %d (shards=%d) does not match shards=%d or has no reading", i, b.Shards, g.Shards)
		}
		if slowdown > 0 {
			g.WallNs = int64(float64(g.WallNs) * slowdown)
			g.EventsPerSec /= slowdown
		}
		if sharded {
			ratio := float64(g.WallNs) / float64(b.WallNs)
			fmt.Printf("qosbench: %s shards=%d %12d ns vs baseline %12d (%.2fx)\n", base.Scenario, g.Shards, g.WallNs, b.WallNs, ratio)
			if ratio > 1+tol {
				return fmt.Errorf("shards=%d wall %v is %.1f%% of baseline (ceiling %.1f%%)",
					g.Shards, units.Time(g.WallNs), 100*ratio, 100*(1+tol))
			}
			continue
		}
		ratio := g.EventsPerSec / b.EventsPerSec
		fmt.Printf("qosbench: %-16s %10.0f ev/s vs baseline %10.0f (%.2fx), %.3f allocs/ev vs %.3f\n",
			base.Scenario, g.EventsPerSec, b.EventsPerSec, ratio, g.MallocsPerEvent, b.MallocsPerEvent)
		if ratio < 1-tol {
			return fmt.Errorf("throughput %.0f ev/s is %.1f%% of baseline %.0f (floor %.1f%%)",
				g.EventsPerSec, 100*ratio, b.EventsPerSec, 100*(1-tol))
		}
		if b.MallocsPerEvent > 0 && g.MallocsPerEvent > b.MallocsPerEvent*(1+tol)+0.05 {
			return fmt.Errorf("allocation pressure %.3f allocs/ev exceeds baseline %.3f by more than %.0f%%",
				g.MallocsPerEvent, b.MallocsPerEvent, 100*tol)
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
