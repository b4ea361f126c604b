package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"deadlineqos/internal/soak"
	"deadlineqos/internal/units"
)

// minReps is the fewest repetitions a timed run makes: two inputs, one
// of them repeated.
const minReps = 3

// defaultReps is how many repetitions a timed run without a time budget
// makes.
const defaultReps = 5

// timeoutFactor kills a repetition that runs this many times longer than
// its workload's median (or nominal) wall time.
const timeoutFactor = 10

// Runner runs workload repetitions as child processes and checks them.
type Runner struct {
	Seed uint64
	// Seconds sizes a timed run: it makes as many repetitions as the
	// workload's nominal time fits in it, and at least minReps. Zero
	// makes defaultReps repetitions.
	Seconds float64
	// Horizon, when positive, overrides every workload's simulated
	// horizon (tests only).
	Horizon units.Time
	// OutDir receives CPU profiles.
	OutDir string
	// Child starts one child process with the given child arguments.
	Child func(ctx context.Context, args []string) *exec.Cmd
	// Log receives progress lines.
	Log io.Writer
	// Spans, when non-nil, records the benchmark's own spans.
	Spans *SpanLog
}

// ReexecChild starts the running binary in child mode.
func ReexecChild(ctx context.Context, args []string) *exec.Cmd {
	self, err := os.Executable()
	if err != nil {
		self = os.Args[0]
	}
	return exec.CommandContext(ctx, self, append([]string{"-child"}, args...)...)
}

// WorkloadReport is one workload's outcome at one seed.
type WorkloadReport struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Failures     []string           `json:"failures,omitempty"`
	Fingerprint  string             `json:"fingerprint"`
	ModelChanged bool               `json:"model_changed"`
	EndToEnd     map[string]Summary `json:"end_to_end,omitempty"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
}

// FailedFrac is failed repetitions over attempted ones.
func (w *WorkloadReport) FailedFrac() float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}

// repSet collects the repetitions of one configuration. Repetitions of
// the same input seed must carry the same result fingerprint.
type repSet struct {
	what     string
	reps     []RepResult
	walls    []float64 // child process wall seconds of the passing repetitions
	fps      map[uint64]string
	attempts int
	failures []string
}

func (s *repSet) add(seed uint64, r RepResult, wall float64, err error) {
	s.attempts++
	switch fp, seen := s.fps[seed]; {
	case err != nil:
		s.failures = append(s.failures, fmt.Sprintf("%s rep %d: %v", s.what, s.attempts, err))
	case seen && r.Fingerprint != fp:
		s.failures = append(s.failures, fmt.Sprintf("%s rep %d: seed %d fingerprint %.12s differs from %.12s", s.what, s.attempts, seed, r.Fingerprint, fp))
	default:
		if s.fps == nil {
			s.fps = map[uint64]string{}
		}
		s.fps[seed] = r.Fingerprint
		s.reps = append(s.reps, r)
		s.walls = append(s.walls, wall)
	}
}

// timeout is how long the next repetition may run before it is killed:
// timeoutFactor times the median wall time of the passing repetitions so
// far, or of nominal before one has passed. A repetition that fails fast
// cannot shorten it.
func (s *repSet) timeout(nominal time.Duration) time.Duration {
	if len(s.walls) == 0 {
		return timeoutFactor * nominal
	}
	return time.Duration(timeoutFactor * Median(s.walls) * float64(time.Second))
}

// requireSame records a failure in s unless it produced the same results
// as ref at seed.
func (s *repSet) requireSame(ref *repSet, seed uint64) {
	if fp, ok := s.fps[seed]; ok && ref.fps[seed] != "" && fp != ref.fps[seed] {
		s.failures = append(s.failures, fmt.Sprintf("%s fingerprint %.12s differs from %s's %.12s", s.what, fp, ref.what, ref.fps[seed]))
	}
}

func (w *WorkloadReport) absorb(sets ...*repSet) {
	for _, s := range sets {
		w.Attempted += s.attempts
		w.Failed += len(s.failures)
		w.Failures = append(w.Failures, s.failures...)
	}
}

// repCount is how many repetitions a timed run of w makes: defaultReps,
// or as many of w's nominal repetitions as fit in Seconds. It never
// depends on a measured time, so a run's inputs are fixed by its flags
// and seed.
func (r *Runner) repCount(w Workload) int {
	if r.Seconds <= 0 {
		return defaultReps
	}
	return max(int(r.Seconds/w.Nominal.Seconds()), minReps)
}

// inputSeeds are the input seeds of an n-repetition timed run at seed:
// n-1 distinct inputs derived from seed, the first being seed itself, and
// a last repetition that repeats the first input, so every run checks
// that one input gives one result. The medians then describe the
// workload over several inputs rather than one draw of its randomness.
func inputSeeds(seed uint64, n int) []uint64 {
	seeds := []uint64{seed}
	for i := 1; i < n-1; i++ {
		seeds = append(seeds, soak.EpochSeed(seed, i))
	}
	return append(seeds, seed)
}

// Timed runs w's timed repetitions and summarises the end-to-end metrics.
func (r *Runner) Timed(w Workload) *WorkloadReport {
	rep := &WorkloadReport{Workload: w.Name, Seed: r.Seed}
	root, end := r.span("timed", w, 0)
	set := r.repeat(w, ChildOptions{}, root, inputSeeds(r.Seed, r.repCount(w)))
	end()
	rep.absorb(set)
	r.finish(rep, w, set)
	rep.EndToEnd = summarizeEndToEnd(set.reps)
	return rep
}

// finish records the fingerprint at the run's seed and whether it moved
// from the recorded seed-1 value.
func (r *Runner) finish(rep *WorkloadReport, w Workload, set *repSet) {
	rep.Fingerprint = set.fps[r.Seed]
	if want, ok := seed1Fingerprints[w.Name]; ok && r.Seed == 1 && rep.Fingerprint != "" && rep.Fingerprint != want {
		rep.ModelChanged = true
	}
}

// repeat runs one repetition of w per input seed into a new set.
func (r *Runner) repeat(w Workload, o ChildOptions, parent int, seeds []uint64) *repSet {
	set := &repSet{what: w.Name}
	for _, seed := range seeds {
		r.once(set, w, o, parent, seed)
	}
	return set
}

// once runs one repetition of w at seed and adds it to set.
func (r *Runner) once(set *repSet, w Workload, o ChildOptions, parent int, seed uint64) {
	o.Seed = seed
	rr, wall, err := r.runChild(w, o, set.timeout(w.Nominal), parent)
	set.add(seed, rr, wall, err)
	if r.Log != nil {
		fmt.Fprintf(r.Log, "%s rep %d seed %d: %.2fs wall, run %.3fs\n", set.what, set.attempts, seed, wall, rr.RunS)
	}
}

// runChild runs one repetition in a fresh child process.
func (r *Runner) runChild(w Workload, o ChildOptions, timeout time.Duration, parent int) (RepResult, float64, error) {
	o.Workload, o.Horizon = w.Name, r.Horizon
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := r.Child(ctx, o.args())
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr

	id, end := r.span("rep", w, parent)
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0).Seconds()
	end()

	var rr RepResult
	if ctx.Err() != nil {
		return rr, wall, fmt.Errorf("killed after %v (%dx the expected time)", timeout.Round(time.Millisecond), timeoutFactor)
	}
	if perr := json.Unmarshal(stdout.Bytes(), &rr); perr != nil && err == nil {
		err = fmt.Errorf("unreadable child result: %v", perr)
	}
	if rr.Err != "" {
		err = fmt.Errorf("%s", rr.Err)
	}
	if err != nil {
		return rr, wall, err
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rr.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if r.Spans != nil {
		r.Spans.Adopt(rr.Spans, r.runID(w), id)
	}
	return rr, wall, nil
}

// span opens a span of w's run when tracing; otherwise it is free.
func (r *Runner) span(name string, w Workload, parent int) (int, func()) {
	if r.Spans == nil {
		return 0, func() {}
	}
	return r.Spans.Start(name, r.runID(w), parent)
}

// runID names one workload run in the spans.
func (r *Runner) runID(w Workload) string { return fmt.Sprintf("%s/seed%d", w.Name, r.Seed) }

// profilePath is where the traced run keeps w's CPU profile.
func (r *Runner) profilePath(w Workload) (string, error) {
	return filepath.Join(r.OutDir, "cpu-"+w.Name+".pprof"), os.MkdirAll(r.OutDir, 0o755)
}

// Env describes the host a result was measured on.
type Env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// CurrentEnv reads this process's host description; the commit comes
// from the build's VCS stamp and is "unknown" outside a git checkout.
func CurrentEnv() Env {
	e := Env{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && e.Commit != "unknown" {
			e.Commit += "+dirty"
		}
	}
	return e
}

// Result is everything one benchmark invocation measured; -compare reads
// two of them.
type Result struct {
	Env       Env               `json:"env"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Workloads []*WorkloadReport `json:"workloads"`
	// Micro holds the traced run's microbenchmark metrics, measured once
	// because they do not depend on the workload.
	Micro map[string]float64 `json:"micro,omitempty"`
}

// metricValue is one entry of the summary line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// SummaryLine renders the machine-readable last line: pass/fail counts
// and, per metric, the median (timed) or the traced value. With several
// workloads the workload metrics' names are prefixed by the workload; the
// microbenchmark metrics never are. ok is false when any repetition
// failed or a metric is not a finite number.
func (res Result) SummaryLine() (string, bool) {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Metrics: map[string]metricValue{}}
	finite := true
	add := func(name string, m Metric, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
			return
		}
		out.Metrics[name] = metricValue{v, m.Unit}
	}
	for _, rep := range res.Workloads {
		out.Attempted += rep.Attempted
		out.Failed += rep.Failed
		prefix := ""
		if len(res.Workloads) > 1 {
			prefix = rep.Workload + "/"
		}
		for _, m := range EndToEnd {
			if s, ok := rep.EndToEnd[m.Name]; ok && s.N > 0 {
				add(prefix+m.Name, m, s.Median)
			}
		}
		for _, m := range PerLayer {
			if v, ok := rep.PerLayer[m.Name]; ok {
				add(prefix+m.Name, m, v)
			}
		}
	}
	for _, m := range PerLayer {
		if v, ok := res.Micro[m.Name]; ok {
			add(m.Name, m, v)
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0 && finite
	b, _ := json.Marshal(out) // finite floats and strings always marshal
	return string(b), out.Correct
}
