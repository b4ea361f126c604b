// Command benchrun is the repository benchmark: it times fixed-seed
// simulation workloads end to end, attributes their cost to the
// simulator's layers in a traced mode, and compares two result files.
// See the bench package documentation for the workloads and metrics.
//
// Examples (from internal/bench):
//
//	go run ./cmd/benchrun -seed 1                      # every workload, 5 repetitions
//	go run ./cmd/benchrun -workload clos16-sat -seconds 20
//	go run ./cmd/benchrun -trace 1                     # per-layer metrics, spans.jsonl
//	go run ./cmd/benchrun -compare -spec ../../BENCHMARK.json parent.json change.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"deadlineqos/internal/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(bench.ChildMain(os.Args[2:], os.Stdout))
	}
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "all", "workload to run, or all: "+names())
		seed     = flag.Uint64("seed", 1, "input seed of every workload")
		seconds  = flag.Float64("seconds", 0, "time budget per workload (0 = 5 repetitions)")
		traced   = flag.Int("trace", 0, "1 = traced run: per-layer metrics, CPU profiles and spans")
		outDir   = flag.String("outdir", filepath.Join(".bench_build", "out"), "directory for result.json, spans.jsonl and profiles")
		compare  = flag.Bool("compare", false, "compare two result files: -compare parent.json change.json")
		spec     = flag.String("spec", "BENCHMARK.json", "benchmark definition holding the regression bounds (for -compare)")
	)
	flag.Parse()
	if *compare {
		return runCompare(*spec, flag.Args())
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "benchrun: -trace must be 0 or 1")
		return 2
	}

	ws := bench.Workloads
	if *workload != "all" {
		w, err := bench.Lookup(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			return 2
		}
		ws = []bench.Workload{w}
	}
	env := bench.CurrentEnv()
	fmt.Printf("env gomaxprocs=%d nproc=%d go=%s commit=%s seed=%d\n", env.GOMAXPROCS, env.NumCPU, env.GoVersion, env.Commit, *seed)

	r := &bench.Runner{
		Seed: *seed, Seconds: *seconds,
		OutDir: *outDir, Child: bench.ReexecChild, Log: os.Stderr,
	}
	if *traced == 1 {
		r.Spans = &bench.SpanLog{}
	}
	res := bench.Result{Env: env, Seed: *seed, Traced: *traced == 1}
	for _, w := range ws {
		if env.NumCPU < w.MinCPUs {
			fmt.Printf("%s: refused: it runs %d shard goroutines and this host has nproc=%d, so its times would measure core contention, not the simulator\n",
				w.Name, w.MinCPUs, env.NumCPU)
			if len(ws) == 1 {
				return 2
			}
			continue
		}
		var rep *bench.WorkloadReport
		if res.Traced {
			var err error
			if rep, err = r.Traced(w); err != nil {
				fmt.Fprintln(os.Stderr, "benchrun:", err)
				return 1
			}
		} else {
			rep = r.Timed(w)
		}
		printReport(rep)
		res.Workloads = append(res.Workloads, rep)
	}
	if res.Traced {
		res.Micro = r.Micro()
		fmt.Println("microbenchmarks")
		printPerLayer(res.Micro)
	}
	if err := writeOutputs(*outDir, res, r.Spans); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		return 1
	}
	line, ok := res.SummaryLine()
	fmt.Println(line)
	if !ok {
		return 1
	}
	return 0
}

func names() string {
	var n []string
	for _, w := range bench.Workloads {
		n = append(n, w.Name)
	}
	return strings.Join(n, ", ")
}

func printReport(rep *bench.WorkloadReport) {
	fmt.Printf("%s seed=%d attempted=%d failed=%d failed_frac=%g fingerprint=%s\n",
		rep.Workload, rep.Seed, rep.Attempted, rep.Failed, rep.FailedFrac(), rep.Fingerprint)
	for _, f := range rep.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	if rep.ModelChanged {
		fmt.Println("  model_changed=yes (fingerprint differs from the recorded seed-1 value)")
	}
	if rep.EndToEnd != nil {
		fmt.Printf("  %-22s %-10s %14s %14s %14s %4s\n", "metric", "unit", "median", "p25", "p75", "n")
		for _, m := range bench.EndToEnd {
			s := rep.EndToEnd[m.Name]
			fmt.Printf("  %-22s %-10s %14.6g %14.6g %14.6g %4d\n", m.Name, m.Unit, s.Median, s.P25, s.P75, s.N)
		}
	}
	printPerLayer(rep.PerLayer)
}

func printPerLayer(values map[string]float64) {
	for _, m := range bench.PerLayer {
		if v, ok := values[m.Name]; ok {
			fmt.Printf("  %-30s %-12s %14.6g\n", m.Name, m.Unit, v)
		}
	}
}

func writeOutputs(dir string, res bench.Result, spans *bench.SpanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if spans != nil {
		return spans.WriteJSONL(filepath.Join(dir, "spans.jsonl"))
	}
	return nil
}

func runCompare(spec string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchrun: -compare takes two result files: parent.json change.json")
		return 2
	}
	sp, err := bench.LoadSpec(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		return 2
	}
	var sides [2]bench.Result
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &sides[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: %s: %v\n", path, err)
			return 2
		}
	}
	rows := bench.Compare(sp, sides[0], sides[1])
	fmt.Printf("%-18s %-20s %12s %8s %12s %8s %8s  %s\n", "workload", "metric", "parent", "iqr", "change", "iqr", "bound", "verdict")
	worse := false
	for _, r := range rows {
		fmt.Printf("%-18s %-20s %12.6g %7.1f%% %12.6g %7.1f%% %7.1f%%  %s\n", r.Workload, r.Metric,
			r.Parent.Median, 100*r.Parent.IQRFrac(), r.Change.Median, 100*r.Change.IQRFrac(), 100*r.Bound, r.Verdict)
		worse = worse || r.Verdict == bench.Worse
	}
	if worse {
		return 1
	}
	return 0
}
