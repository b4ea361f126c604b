package bench

// Metric names one reported number: its unit and which direction is
// better. Regression bounds live in BENCHMARK.json, next to the names.
type Metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// EndToEnd are the host costs a user of the simulator pays per run, in
// the order they are printed.
var EndToEnd = []Metric{
	{"sim_ms_per_s", "sim-ms/s", "higher"},
	{"cpu_s_per_sim_ms", "s/sim-ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"alloc_mb_per_sim_ms", "MB/sim-ms", "lower"},
}

// selfFracModules are the deadlineqos/internal packages the traced run
// attributes CPU samples to; samples in other internal packages count
// toward their nearest listed caller.
var selfFracModules = []string{
	"sim", "switchsim", "pqueue", "link", "hostif", "traffic", "stats",
	"policy", "arbiter", "packet", "network", "trace", "metrics", "parsim",
	"session", "admission", "faults", "police",
}

// runtimeBuckets split the samples whose leaf is Go runtime code.
var runtimeBuckets = []string{"runtime_gc", "runtime_alloc", "runtime_maps", "runtime_other"}

// PerLayer are the traced run's metrics, in the order they are printed.
var PerLayer = perLayer()

func perLayer() []Metric {
	ms := []Metric{
		{"sim.events", "count", "lower"},
		{"sim.events_per_s", "1/s", "higher"},
		{"sim.ns_per_event", "ns", "lower"},
		{"sim.max_pending", "count", "lower"},
		{"sim.mallocs_per_event", "allocs/event", "lower"},
		{"sim.schedule_pop_ns.4k", "ns", "lower"},
		{"sim.schedule_pop_ns.32k", "ns", "lower"},
		{"sim.schedule_pop_allocs", "allocs/op", "lower"},
		{"switchsim.xbar_transfers", "count", "higher"},
		{"switchsim.order_errors", "count", "lower"},
		{"switchsim.forward_ns", "ns", "lower"},
		{"switchsim.forward_allocs", "allocs/op", "lower"},
		{"pqueue.takeovers", "count", "lower"},
		{"pqueue.takeover_ns", "ns", "lower"},
		{"pqueue.fifo_ns", "ns", "lower"},
		{"pqueue.heap_ns", "ns", "lower"},
		{"link.sends", "count", "higher"},
		{"link.send_ns", "ns", "lower"},
		{"link.send_allocs", "allocs/op", "lower"},
		{"network.backlog_at_horizon", "count", "lower"},
		{"hostif.retransmits", "count", "lower"},
		{"hostif.submit_ns", "ns", "lower"},
		{"hostif.submit_allocs", "allocs/op", "lower"},
		{"session.setups", "count", "higher"},
		{"session.accept_ratio", "ratio", "higher"},
		{"obs.overhead_frac", "ratio", "lower"},
		{"parsim.speedup_2v1", "x", "higher"},
		{"parsim.relay_event_frac", "ratio", "lower"},
		{"bench.profile_overhead_frac", "ratio", "lower"},
	}
	for _, m := range selfFracModules {
		ms = append(ms, Metric{"self_frac." + m, "ratio", "lower"})
	}
	for _, b := range runtimeBuckets {
		ms = append(ms, Metric{"self_frac." + b, "ratio", "lower"})
	}
	return ms
}

// simMsPerS is the simulated milliseconds one wall second of Network.Run
// advances.
func (r RepResult) simMsPerS() float64 { return r.SimMs / r.RunS }

// endToEnd returns one repetition's value of each end-to-end metric
// except setup_s, whose samples are pooled across repetitions.
func (r RepResult) endToEnd() map[string]float64 {
	const mb = 1 << 20
	return map[string]float64{
		"sim_ms_per_s":        r.simMsPerS(),
		"cpu_s_per_sim_ms":    r.CPUS / r.SimMs,
		"peak_rss_mb":         r.PeakRSSMB,
		"alloc_mb_per_sim_ms": float64(r.AllocBytes) / mb / r.SimMs,
	}
}

// summarizeEndToEnd summarises the passing repetitions of one run.
func summarizeEndToEnd(reps []RepResult) map[string]Summary {
	vals := map[string][]float64{}
	for _, r := range reps {
		for k, v := range r.endToEnd() {
			vals[k] = append(vals[k], v)
		}
		vals["setup_s"] = append(vals["setup_s"], r.SetupS...)
	}
	out := map[string]Summary{}
	for _, m := range EndToEnd {
		out[m.Name] = Summarize(vals[m.Name])
	}
	return out
}

// medianOf is the median of f over reps.
func medianOf(reps []RepResult, f func(RepResult) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return Median(v)
}
