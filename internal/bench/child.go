package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"deadlineqos/internal/network"
	"deadlineqos/internal/units"
)

// RepResult is what one repetition reports: the host cost of building and
// running the workload, the layer counters from network.Results, and the
// outcome of the correctness checks. The child process fills everything
// except PeakRSSMB, which its parent reads from the child's rusage.
type RepResult struct {
	SetupS     []float64 `json:"setup_s"` // wall s of each network.New
	RunS       float64   `json:"run_s"`   // wall s of Network.Run
	CPUS       float64   `json:"cpu_s"`   // user+sys s during Network.Run
	SimMs      float64   `json:"sim_ms"`  // simulated warm-up + measure
	AllocBytes uint64    `json:"alloc_bytes"`
	Mallocs    uint64    `json:"mallocs"`
	Events     uint64    `json:"events"`
	MaxPending int       `json:"max_pending"`

	XbarTransfers uint64  `json:"xbar_transfers"`
	OrderErrors   uint64  `json:"order_errors"`
	TakeOvers     uint64  `json:"takeovers"`
	LinkSends     uint64  `json:"link_sends"`
	Backlog       int     `json:"backlog_at_horizon"`
	Retransmits   uint64  `json:"retransmits"`
	SessionSetups uint64  `json:"session_setups"`
	AcceptRatio   float64 `json:"accept_ratio"`

	Fingerprint string `json:"fingerprint"`
	// Spans are the child's setup, run and check intervals (Unix ns).
	Spans []Span `json:"spans"`
	// Err is the first failed check; empty when the repetition passed.
	Err string `json:"err,omitempty"`

	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// ChildOptions selects what one child repetition runs.
type ChildOptions struct {
	Workload string
	Seed     uint64
	// Shards overrides the workload's shard count when positive.
	Shards int
	// Horizon, when positive, replaces warm-up + measure (a quarter of it
	// warm-up); only the tests use it, to keep every workload short.
	Horizon units.Time
	// CPUProfile, when set, receives a CPU profile of Network.Run.
	CPUProfile string
}

// childFlags declares the child's flags on fs; the parent passes exactly
// these (see ChildOptions.args).
func childFlags(fs *flag.FlagSet) *ChildOptions {
	o := &ChildOptions{}
	fs.StringVar(&o.Workload, "workload", "", "workload name")
	fs.Uint64Var(&o.Seed, "seed", 1, "input seed")
	fs.IntVar(&o.Shards, "shards", 0, "shard count override")
	fs.Int64Var((*int64)(&o.Horizon), "horizon", 0, "simulated horizon override (ns)")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "CPU profile of Network.Run")
	return o
}

// args renders o as the flags childFlags parses.
func (o ChildOptions) args() []string {
	return []string{
		"-workload", o.Workload,
		"-seed", fmt.Sprint(o.Seed),
		"-shards", fmt.Sprint(o.Shards),
		"-horizon", fmt.Sprint(int64(o.Horizon)),
		"-cpuprofile", o.CPUProfile,
	}
}

// ChildMain runs one repetition as a child process: it parses args, runs
// the repetition and writes its RepResult as one JSON line to out. It
// returns the process exit code: non-zero when a check failed.
func ChildMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	o := childFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	r := RunRep(*o)
	if err := json.NewEncoder(out).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	if r.Err != "" {
		return 1
	}
	return 0
}

// setupReps is how many times each repetition builds its network, so a
// run's setup_s median rests on several builds per child. Only the last
// build runs.
const setupReps = 3

// RunRep builds the workload setupReps times, runs the last network, and
// checks its results. Failures are reported in RepResult.Err.
func RunRep(o ChildOptions) RepResult {
	var r RepResult
	w, err := Lookup(o.Workload)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	setupStart := time.Now()
	var n *network.Network
	var cfg network.Config
	for i := 0; i < setupReps; i++ {
		if n != nil {
			// Drop the previous build before timing the next, so every
			// timed network.New starts from the same heap state.
			n = nil
			runtime.GC()
		}
		if cfg, err = o.config(w); err != nil {
			r.Err = fmt.Sprintf("config: %v", err)
			return r
		}
		t0 := time.Now()
		if n, err = network.New(cfg); err != nil {
			r.Err = fmt.Sprintf("network.New: %v", err)
			return r
		}
		r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
	}
	setupEnd := time.Now()

	var prof *os.File
	if o.CPUProfile != "" {
		if prof, err = os.Create(o.CPUProfile); err != nil {
			r.Err = err.Error()
			return r
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			r.Err = err.Error()
			return r
		}
	}
	cpu0 := cpuSeconds()
	runStart := time.Now()
	res := n.Run()
	runEnd := time.Now()
	r.CPUS = cpuSeconds() - cpu0
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			r.Err = fmt.Sprintf("cpu profile: %v", err)
			return r
		}
	}
	r.RunS = runEnd.Sub(runStart).Seconds()
	r.SimMs = (cfg.WarmUp + cfg.Measure).Milliseconds()
	r.AllocBytes = res.Perf.AllocBytes
	r.Mallocs = res.Perf.Mallocs
	r.Events = res.SimEvents
	r.MaxPending = res.Perf.MaxPending
	r.XbarTransfers = res.XbarTransfers
	r.OrderErrors = res.OrderErrors
	r.TakeOvers = res.TakeOvers
	r.LinkSends = res.LinkSends
	r.Backlog = res.PendingAtHorizon
	r.Retransmits = res.Reliability.Retransmitted
	if s := res.Sessions; s != nil {
		r.SessionSetups = s.SetupsSent
		r.AcceptRatio = s.AcceptRatio
	}

	checkStart := time.Now()
	r.Err = check(n, res, &r)
	checkEnd := time.Now()
	r.Spans = []Span{
		{Name: "setup", Start: setupStart.UnixNano(), End: setupEnd.UnixNano()},
		{Name: "run", Start: runStart.UnixNano(), End: runEnd.UnixNano()},
		{Name: "check", Start: checkStart.UnixNano(), End: checkEnd.UnixNano()},
	}
	return r
}

// check runs the per-repetition correctness checks and fingerprints the
// results; it returns the first failure, or "".
func check(n *network.Network, res *network.Results, r *RepResult) string {
	if err := res.Conservation.Check(); err != nil {
		return fmt.Sprintf("conservation: %v", err)
	}
	if err := n.AuditInvariants(); err != nil {
		return fmt.Sprintf("invariants: %v", err)
	}
	if res.SimEvents == 0 || res.Conservation.DeliveredUnique == 0 {
		return "run executed no events or delivered nothing"
	}
	fp, err := Fingerprint(res)
	if err != nil {
		return err.Error()
	}
	r.Fingerprint = fp
	return ""
}

// config builds the workload's configuration with o's overrides applied.
func (o ChildOptions) config(w Workload) (network.Config, error) {
	cfg, err := w.Config(o.Seed)
	if err != nil {
		return cfg, err
	}
	if o.Shards > 0 {
		cfg.Shards = o.Shards
	}
	if o.Horizon > 0 {
		cfg.WarmUp = o.Horizon / 4
		cfg.Measure = o.Horizon - cfg.WarmUp
	}
	return cfg, nil
}

// cpuSeconds is this process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
