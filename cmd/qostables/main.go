// Command qostables regenerates the complete experiment suite — every
// table and figure of the paper's evaluation plus the DESIGN.md ablations —
// and prints them in DESIGN.md's experiment-index order. Figures 2-4 are
// built from one shared (architecture x load) sweep; with -seeds, Figure 2
// is also replicated across the seeds and reported as mean±std.
//
// Examples:
//
//	qostables -scale quick                       # the whole suite, reduced scale
//	qostables -scale paper -loads 0.3,0.6,1.0    # full 128-endpoint MIN, reduced sweep
//	qostables -only figures,penalty              # a subset
//	qostables -only figures -seeds 1,2,3,4,5     # Figures 2-4 plus Figure 2 mean±std
//	qostables -only figures -csvdir figs         # figure series as CSV for plotting
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/cli"
	"deadlineqos/internal/coflow"
	"deadlineqos/internal/experiments"
	"deadlineqos/internal/policy"
	"deadlineqos/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qostables:", err)
		os.Exit(1)
	}
}

// tableExps are the single-table experiments in DESIGN.md's index order;
// they follow Table 1 and the figures.
var tableExps = []struct {
	id, name string
	run      func(experiments.Options) (*report.Table, error)
}{
	{"S1", "penalty", experiments.OrderPenalty},
	{"S2", "band", experiments.VideoBand},
	{"A1", "eligible", experiments.AblationEligibleTime},
	{"A2", "buffer", experiments.AblationBufferSize},
	{"A3", "skew", experiments.AblationClockSkew},
	{"A4", "hotspot", experiments.HotspotTolerance},
	{"A5", "vctable", experiments.AblationVCTable},
	{"A6", "speedup", experiments.AblationXbarSpeedup},
	{"E1", "jitter", experiments.VideoJitter},
	{"E2", "manyvcs", experiments.ManyVCs},
	{"E3", "collective", experiments.CollectiveCompletion},
	{"E4", "slack", experiments.DeadlineSlack},
	{"E5", "churn", experiments.Churn},
	{"E6", "availability", experiments.Availability},
	{"E7", "survivable", experiments.Survivable},
	{"E8", "policies", experiments.Policies},
	{"E9", "protection", experiments.Protection},
	{"E9b", "gray", experiments.GrayDrain},
}

// sectionNames lists every name -only accepts, in run order.
func sectionNames() []string {
	names := []string{"table1", "figures"}
	for _, e := range tableExps {
		names = append(names, e.name)
	}
	return names
}

func run() error {
	var (
		scale   = flag.String("scale", "quick", "experiment scale: quick|paper")
		par     = flag.Int("par", 0, "parallel simulations (0 = GOMAXPROCS / shards, at least 1)")
		shards  = cli.ShardsFlag()
		seed    = flag.Uint64("seed", 1, "random seed")
		seeds   = flag.String("seeds", "", "comma-separated seed list: the figures also report Figure 2 mean±std across them")
		loads   = flag.String("loads", "", "comma-separated loads overriding the scale's sweep")
		warmup  = flag.String("warmup", "", "override warm-up period (e.g. 2ms)")
		measure = flag.String("measure", "", "override measurement window (e.g. 25ms)")
		plots   = flag.Bool("plots", true, "print ASCII plots next to the tables")
		csvdir  = flag.String("csvdir", "", "also write every table as CSV into this directory")
		archsF  = flag.String("archs", "", "comma-separated architecture subset (traditional,traditional4,ideal,simple,advanced)")
		only    = flag.String("only", "", "comma-separated subset: "+strings.Join(sectionNames(), ","))
		polName = cli.PolicyFlag()
		coflows = cli.CoflowsFlag()
	)
	prof := cli.ProfileFlags()
	flag.Parse()
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()

	opt, err := cli.Scale(*scale)
	if err != nil {
		return err
	}
	opt.Parallelism = *par
	opt = opt.WithShards(*shards)
	opt.Base.Seed = *seed
	if *loads != "" {
		if opt.Loads, err = cli.ParseLoads(*loads); err != nil {
			return err
		}
	}
	var seedList []uint64
	if *seeds != "" {
		if seedList, err = cli.ParseSeeds(*seeds); err != nil {
			return err
		}
	}
	if *warmup != "" {
		if opt.Base.WarmUp, err = cli.ParseDuration(*warmup); err != nil {
			return err
		}
	}
	if *measure != "" {
		if opt.Base.Measure, err = cli.ParseDuration(*measure); err != nil {
			return err
		}
	}
	// -policy/-coflows ride on the shared base config, so they tilt every
	// selected experiment — useful for re-running the paper tables under an
	// alternative policy. E8 (policies) ignores them: it sweeps the whole
	// roster on its own fixed scenario.
	if opt.Base.Policy, err = policy.Parse(*polName); err != nil {
		return err
	}
	if *coflows {
		opt.Base.Coflows = &coflow.Config{StartAt: opt.Base.WarmUp}
	}
	if *archsF != "" {
		opt.Archs = opt.Archs[:0]
		for _, name := range strings.Split(*archsF, ",") {
			a, err := arch.Parse(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			opt.Archs = append(opt.Archs, a)
		}
	}

	want := map[string]bool{}
	if *only != "" {
		names := sectionNames()
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if !slices.Contains(names, name) {
				return fmt.Errorf("-only: unknown section %q (valid: %s)", name, strings.Join(names, ","))
			}
			want[name] = true
		}
	}
	selected := func(name string) bool { return len(want) == 0 || want[name] }

	if *csvdir != "" {
		if err := os.MkdirAll(*csvdir, 0o755); err != nil {
			return err
		}
	}
	show := func(id, name string, start time.Time, tables []*report.Table, figPlots []*report.Plot) {
		fmt.Printf("=== %s (%s) [%.1fs] ===\n\n", id, name, time.Since(start).Seconds())
		for i, t := range tables {
			fmt.Println(t)
			if *csvdir != "" {
				path := filepath.Join(*csvdir, fmt.Sprintf("%s_%d.csv", name, i))
				if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "qostables: writing %s: %v\n", path, err)
				}
			}
		}
		if *plots {
			for _, p := range figPlots {
				fmt.Println(p)
			}
		}
	}

	fmt.Printf("experiment suite: scale=%s hosts=%d loads=%v window=[%v,%v] seed=%d\n\n",
		*scale, opt.Base.Topology.Hosts(), opt.Loads,
		opt.Base.WarmUp, opt.Base.WarmUp+opt.Base.Measure, *seed)

	if selected("table1") {
		start := time.Now()
		t, err := experiments.Table1(opt)
		if err != nil {
			return fmt.Errorf("T1: %w", err)
		}
		show("T1", "table1", start, []*report.Table{t}, nil)
	}
	if selected("figures") {
		start := time.Now()
		f, err := experiments.AllFigures(opt)
		if err != nil {
			return fmt.Errorf("F2-F4: %w", err)
		}
		tables := []*report.Table{f.Fig2Latency, f.Fig2CDF, f.Fig3Latency, f.Fig3CDF, f.Fig4Throughput}
		if seedList != nil {
			t, err := experiments.Fig2Confidence(opt, seedList)
			if err != nil {
				return fmt.Errorf("F2 seeds: %w", err)
			}
			tables = append(tables, t)
		}
		show("F2 F3 F4", "figures", start, tables, f.Plots)
	}
	for _, exp := range tableExps {
		if !selected(exp.name) {
			continue
		}
		start := time.Now()
		t, err := exp.run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.id, err)
		}
		show(exp.id, exp.name, start, []*report.Table{t}, nil)
	}
	return nil
}
