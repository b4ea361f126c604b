package bench

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"deadlineqos/internal/units"
)

// The test binary doubles as the benchmark's child process: the runner
// under test re-executes it with childEnv set.
const childEnv = "BENCH_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(ChildMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func testChild(ctx context.Context, args []string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	return cmd
}

// smokeHorizon keeps every workload to a fraction of a second.
const smokeHorizon = 400 * units.Microsecond

// smokeRunner's time budget is below one nominal repetition of any
// workload, so its timed runs make minReps repetitions.
func smokeRunner(t *testing.T) *Runner {
	return &Runner{Seed: 1, Seconds: 1e-3, Horizon: smokeHorizon, OutDir: t.TempDir(), Child: testChild}
}

func TestRepSetTimeoutIgnoresFailedRepetitions(t *testing.T) {
	const nominal = 2 * time.Second
	failed := errors.New("failed")
	type rep struct {
		wall float64
		err  error
	}
	for _, tc := range []struct {
		name string
		reps []rep
		want time.Duration
	}{
		{"none yet", nil, timeoutFactor * nominal},
		{"only a fast failure", []rep{{0.01, failed}}, timeoutFactor * nominal},
		{"passing", []rep{{1, nil}, {3, nil}, {2, nil}}, timeoutFactor * 2 * time.Second},
		{"fast failures among passing", []rep{{0.01, failed}, {0.01, failed}, {3, nil}, {0.01, failed}}, timeoutFactor * 3 * time.Second},
	} {
		s := &repSet{what: tc.name}
		for i, r := range tc.reps {
			s.add(uint64(i), RepResult{Fingerprint: "fp"}, r.wall, r.err)
		}
		if got := s.timeout(nominal); got != tc.want {
			t.Errorf("%s: timeout %v, want %v", tc.name, got, tc.want)
		}
	}
}

// runnable are the workloads this host can run.
func runnable() []Workload {
	var ws []Workload
	for _, w := range Workloads {
		if runtime.NumCPU() >= w.MinCPUs {
			ws = append(ws, w)
		}
	}
	return ws
}

func TestSmokeEveryWorkloadThroughChildProcesses(t *testing.T) {
	r := smokeRunner(t)
	for _, w := range runnable() {
		rep := r.Timed(w)
		if rep.Attempted != 3 || rep.Failed != 0 {
			t.Fatalf("%s: attempted %d failed %d: %v", w.Name, rep.Attempted, rep.Failed, rep.Failures)
		}
		if len(rep.Fingerprint) != 64 {
			t.Errorf("%s: fingerprint %q is not a SHA-256", w.Name, rep.Fingerprint)
		}
		for _, m := range EndToEnd {
			s := rep.EndToEnd[m.Name]
			if s.N == 0 || s.Median <= 0 {
				t.Errorf("%s: %s = %+v, want a positive median", w.Name, m.Name, s)
			}
		}
		if rep.EndToEnd["setup_s"].N != 3*setupReps {
			t.Errorf("%s: setup_s has %d samples, want 3 repetitions x %d builds", w.Name, rep.EndToEnd["setup_s"].N, setupReps)
		}
	}
}

func TestFailedCheckCountsAndFailsTheRun(t *testing.T) {
	r := smokeRunner(t)
	// The child cannot build an unknown workload: every repetition fails
	// its first check through the real child-process path.
	rep := r.Timed(Workload{Name: "no-such-workload", Nominal: 10 * time.Second})
	if rep.Attempted != 3 || rep.Failed != 3 || rep.FailedFrac() != 1 {
		t.Fatalf("attempted %d failed %d failed_frac %v, want 3, 3, 1", rep.Attempted, rep.Failed, rep.FailedFrac())
	}
	line, ok := Result{Workloads: []*WorkloadReport{rep}}.SummaryLine()
	if ok {
		t.Fatal("a run with failed repetitions must exit non-zero")
	}
	var out struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil || out.Correct || out.Attempted != 3 || out.Failed != 3 {
		t.Fatalf("summary line %s (err %v)", line, err)
	}
}

func TestChildExitsNonZeroOnFailedCheck(t *testing.T) {
	var out strings.Builder
	if code := ChildMain([]string{"-workload", "no-such-workload"}, &out); code == 0 {
		t.Fatal("child exited 0 for a failed repetition")
	}
	if !strings.Contains(out.String(), `"err"`) {
		t.Fatalf("child did not report its failure: %s", out.String())
	}
}

func TestTracedEmitsEveryPerLayerMetric(t *testing.T) {
	r := smokeRunner(t)
	r.Spans = &SpanLog{}
	names := []string{"clos16-observed"}
	if runtime.NumCPU() >= 2 {
		names = append(names, "paper128-sharded")
	}
	micro := r.Micro()
	for _, name := range names {
		w, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Traced(w)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 {
			t.Fatalf("%s: %v", name, rep.Failures)
		}
		var sum float64
		for _, m := range PerLayer {
			v, inRep := rep.PerLayer[m.Name]
			_, inMicro := micro[m.Name]
			if inRep == inMicro {
				t.Errorf("%s: per-layer metric %s is in the workload report %v and the microbenchmarks %v; want exactly one", name, m.Name, inRep, inMicro)
			}
			if strings.HasPrefix(m.Name, "self_frac.") {
				sum += v
			}
		}
		if sum < 0.98 || sum > 1.02 {
			t.Errorf("%s: self_frac shares sum to %v", name, sum)
		}
	}
	path := t.TempDir() + "/spans.jsonl"
	if err := r.Spans.WriteJSONL(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"setup"`, `"name":"run"`, `"name":"check"`, `"name":"pqueue.fifo_ns"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("spans.jsonl has no %s span", want)
		}
	}
}

// TestSpecMatchesEmittedMetrics pins BENCHMARK.json to the code: every
// workload and metric it names exists here with the same unit and
// direction, is a valid name, and the end-to-end ones carry a bound.
func TestSpecMatchesEmittedMetrics(t *testing.T) {
	spec, err := LoadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !valid.MatchString(n) || seen[n] {
			t.Errorf("name %q is invalid or repeated", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Errorf("spec has %d workloads, code %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if i < len(Workloads) && (w.Name != Workloads[i].Name || w.Why != Workloads[i].Why) {
			t.Errorf("spec workload %d is %q, code has %q", i, w.Name, Workloads[i].Name)
		}
	}
	type metric struct{ unit, better string }
	check := func(kind string, got map[string]metric, want []Metric) {
		if len(got) != len(want) {
			t.Errorf("%s: spec has %d metrics, code emits %d", kind, len(got), len(want))
		}
		for _, m := range want {
			g, ok := got[m.Name]
			if !ok || g.unit != m.Unit || g.better != m.Better {
				t.Errorf("%s: code emits %s [%s, %s], spec has %+v (present %v)", kind, m.Name, m.Unit, m.Better, g, ok)
			}
		}
	}
	e2e := map[string]metric{}
	for _, m := range spec.EndToEnd {
		name(m.Name)
		e2e[m.Name] = metric{m.Unit, m.Better}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", e2e, EndToEnd)
	layer := map[string]metric{}
	for _, m := range spec.PerLayer {
		name(m.Name)
		layer[m.Name] = metric{m.Unit, m.Better}
	}
	check("per_layer", layer, PerLayer)
}
