// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each benchmark
// regenerates its experiment through internal/experiments at a reduced
// scale (16-host network, short windows) and reports the headline numbers
// as benchmark metrics; `go test -bench=<name> -v` additionally prints the
// full tables. The full 128-endpoint reproduction is `cmd/qostables
// -scale paper`.
//
// The raw-performance benchmarks (SimulationRate, SimulationRateTraced,
// Engine) additionally persist a machine-readable BENCH_<scenario>.json
// snapshot in the working directory, so CI and regression scripts can
// diff simulator throughput across commits without parsing `go test`
// output:
//
//	go test -bench='SimulationRate|Engine' -run '^$' .
//	cat BENCH_simrate.json
package deadlineqos

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/experiments"
	"deadlineqos/internal/metrics"
	"deadlineqos/internal/network"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/pqueue"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
	"deadlineqos/internal/xrand"
)

// benchResult is the BENCH_<scenario>.json schema.
type benchResult struct {
	Scenario     string  `json:"scenario"`
	N            int     `json:"n"`
	NsPerOp      float64 `json:"ns_per_op"`
	EventsPerOp  float64 `json:"events_per_op,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// MallocsPerEvent is the hot loop's allocation pressure (heap
	// allocations per executed event), the second axis the
	// perf-regression gate (cmd/qosbench) watches.
	MallocsPerEvent float64 `json:"mallocs_per_event,omitempty"`
}

// writeBenchJSON persists the benchmark's headline numbers as
// BENCH_<scenario>.json (the final timing of the last b.N round wins).
// perf sums the engine profiles (Results.Perf) of the round's runs, so
// events_per_sec and mallocs_per_event cover the engines' Run alone —
// the quantity cmd/qosbench re-measures and gates — while ns_per_op
// times whole iterations, network.New included. Failures only log: a
// read-only working directory must not fail the benchmark itself.
func writeBenchJSON(b *testing.B, scenario string, perf trace.Profile) {
	elapsed := b.Elapsed()
	if b.N == 0 || elapsed <= 0 {
		return
	}
	res := benchResult{
		Scenario: scenario,
		N:        b.N,
		NsPerOp:  float64(elapsed.Nanoseconds()) / float64(b.N),
	}
	if perf.Events > 0 && perf.WallNs > 0 {
		res.EventsPerOp = float64(perf.Events) / float64(b.N)
		res.EventsPerSec = float64(perf.Events) / (float64(perf.WallNs) / 1e9)
		res.MallocsPerEvent = float64(perf.Mallocs) / float64(perf.Events)
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		b.Logf("marshalling BENCH_%s.json: %v", scenario, err)
		return
	}
	if err := os.WriteFile("BENCH_"+scenario+".json", append(data, '\n'), 0o644); err != nil {
		b.Logf("writing BENCH_%s.json: %v", scenario, err)
	}
}

// addPerf accumulates one run's engine profile into sum.
func addPerf(sum *trace.Profile, p trace.Profile) {
	sum.Events += p.Events
	sum.WallNs += p.WallNs
	sum.Mallocs += p.Mallocs
}

// benchOpt is the benchmark experiment scale: large enough to show every
// qualitative effect, small enough that one sweep fits in seconds.
func benchOpt() experiments.Options {
	o := experiments.Quick()
	o.Base.WarmUp = 500 * units.Microsecond
	o.Base.Measure = 6 * units.Millisecond
	o.Loads = []float64{0.3, 1.0}
	return o
}

// videoOpt extends the window so frame-level statistics are meaningful.
func videoOpt() experiments.Options {
	o := benchOpt()
	o.Base.Measure = 30 * units.Millisecond
	return o
}

// parsePct extracts the numeric value of strings like "+24.8%" / "99.1%".
func parsePct(s string) float64 {
	s = strings.TrimSuffix(strings.TrimPrefix(s, "+"), "%")
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// parseF extracts a float cell.
func parseF(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// BenchmarkTable1Mix regenerates Table 1 (the per-host traffic mix) and
// reports how closely the offered per-class bandwidth tracks the
// configured 25% shares.
func BenchmarkTable1Mix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table1(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", t)
			worst := 0.0
			for _, row := range t.Rows {
				if d := parseF(row[2]) - parseF(row[1]); d > worst || -d > worst {
					if d < 0 {
						d = -d
					}
					worst = d
				}
			}
			b.ReportMetric(worst, "worst-share-err-pct")
		}
	}
}

// BenchmarkFig2ControlLatency regenerates Figure 2 (left): Control average
// latency versus load for the four architectures. Reported metrics: the
// full-load Control latency under Traditional and Advanced — the paper's
// headline gap.
func BenchmarkFig2ControlLatency(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		f, err := experiments.AllFigures(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			lat := f.Fig2Latency
			b.Logf("\n%s", lat)
			last := lat.Rows[len(lat.Rows)-1] // full load row
			b.ReportMetric(parseF(last[1]), "trad-us")
			b.ReportMetric(parseF(last[4]), "advanced-us")
		}
	}
}

// BenchmarkFig2ControlCDF regenerates Figure 2 (right): the CDF of Control
// latency at full load, reporting the p99 under Ideal and Traditional.
func BenchmarkFig2ControlCDF(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		f, err := experiments.AllFigures(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", f.Fig2CDF)
			for _, row := range f.Fig2CDF.Rows {
				switch row[0] {
				case arch.Traditional2VC.String():
					b.ReportMetric(parseF(row[4]), "trad-p99-us")
				case arch.Ideal.String():
					b.ReportMetric(parseF(row[4]), "ideal-p99-us")
				}
			}
		}
	}
}

// BenchmarkFig3VideoLatency regenerates Figure 3 (left): video frame
// latency versus load. The Advanced full-load mean should sit on the 10 ms
// target.
func BenchmarkFig3VideoLatency(b *testing.B) {
	opt := videoOpt()
	for i := 0; i < b.N; i++ {
		f, err := experiments.AllFigures(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			lat := f.Fig3Latency
			b.Logf("\n%s", lat)
			last := lat.Rows[len(lat.Rows)-1]
			b.ReportMetric(parseF(last[4]), "advanced-frame-ms")
		}
	}
}

// BenchmarkFig3VideoCDF regenerates Figure 3 (right): the frame latency
// CDF at full load.
func BenchmarkFig3VideoCDF(b *testing.B) {
	opt := videoOpt()
	for i := 0; i < b.N; i++ {
		f, err := experiments.AllFigures(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", f.Fig3CDF)
		}
	}
}

// BenchmarkFig4Throughput regenerates Figure 4: best-effort class
// throughput versus load. Reported metrics: the full-load throughput of
// the two best-effort classes under the Advanced architecture — their gap
// is the EDF differentiation the paper highlights.
func BenchmarkFig4Throughput(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		f, err := experiments.AllFigures(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := f.Fig4Throughput
			b.Logf("\n%s", t)
			last := t.Rows[len(t.Rows)-1]
			// Columns: load, then (BE, BG) per arch in opt.Archs order;
			// Advanced is the 4th architecture.
			b.ReportMetric(parseF(last[7]), "advanced-be-pct")
			b.ReportMetric(parseF(last[8]), "advanced-bg-pct")
		}
	}
}

// BenchmarkOrderErrorPenalty regenerates the §3.4 comparison: the Control
// latency penalty of the Simple and Advanced proposals relative to Ideal,
// plus raw order-error counts from the oracle.
func BenchmarkOrderErrorPenalty(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		t, err := experiments.OrderPenalty(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", t)
			for _, row := range t.Rows {
				if row[1] != "off" {
					continue // report the shaping-off penalties (worst case)
				}
				switch row[0] {
				case arch.Simple2VC.String():
					b.ReportMetric(parsePct(row[3]), "simple-penalty-pct")
				case arch.Advanced2VC.String():
					b.ReportMetric(parsePct(row[3]), "advanced-penalty-pct")
				}
			}
		}
	}
}

// BenchmarkVideoBand regenerates the §5 claim that nearly all video frames
// land within a tight band around the target latency under EDF
// architectures.
func BenchmarkVideoBand(b *testing.B) {
	opt := videoOpt()
	for i := 0; i < b.N; i++ {
		t, err := experiments.VideoBand(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", t)
			for _, row := range t.Rows {
				if row[0] == arch.Advanced2VC.String() {
					b.ReportMetric(parsePct(row[3]), "advanced-in-band-pct")
				}
			}
		}
	}
}

// BenchmarkAblationEligibleTime regenerates ablation A1: the effect of the
// eligible-time lead on order pressure and latency.
func BenchmarkAblationEligibleTime(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationEligibleTime(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", t)
		}
	}
}

// BenchmarkAblationBufferSize regenerates ablation A2: sensitivity to the
// per-VC buffer capacity around the paper's 8 KB.
func BenchmarkAblationBufferSize(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationBufferSize(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", t)
		}
	}
}

// BenchmarkAblationClockSkew regenerates ablation A3: tolerance of the TTD
// mechanism to unsynchronised node clocks.
func BenchmarkAblationClockSkew(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationClockSkew(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", t)
		}
	}
}

// BenchmarkSimulationRate measures raw simulator speed (events per second)
// on the full-load Advanced configuration — the cost metric for scaling
// experiments up.
func BenchmarkSimulationRate(b *testing.B) {
	cfg := network.SmallConfig()
	cfg.Arch = arch.Advanced2VC
	cfg.Load = 1.0
	cfg.WarmUp = 0
	cfg.Measure = 2 * units.Millisecond
	b.ResetTimer()
	var perf trace.Profile
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := network.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		addPerf(&perf, res.Perf)
	}
	b.ReportMetric(float64(perf.Events)/float64(b.N), "events/op")
	writeBenchJSON(b, "simrate", perf)
}

// BenchmarkSimulationRateMetrics is BenchmarkSimulationRate with the
// always-on metrics plane recording into a live registry — diffing
// BENCH_simrate_metrics.json against BENCH_simrate.json quantifies the
// metrics overhead. (With metrics merely configured off, the per-site
// cost is one nil check; that case is BenchmarkSimulationRate itself.)
func BenchmarkSimulationRateMetrics(b *testing.B) {
	cfg := network.SmallConfig()
	cfg.Arch = arch.Advanced2VC
	cfg.Load = 1.0
	cfg.WarmUp = 0
	cfg.Measure = 2 * units.Millisecond
	b.ResetTimer()
	var perf trace.Profile
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		cfg.Metrics = metrics.NewRegistry()
		res, err := network.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		addPerf(&perf, res.Perf)
	}
	b.ReportMetric(float64(perf.Events)/float64(b.N), "events/op")
	writeBenchJSON(b, "simrate_metrics", perf)
}

// BenchmarkSimulationRateTraced is BenchmarkSimulationRate with
// packet-lifecycle tracing on at a 2% sample rate — diffing the two
// BENCH_*.json files quantifies the observability overhead. (With tracing
// merely configured off, the per-event cost is one nil check; that case
// is BenchmarkSimulationRate itself.)
func BenchmarkSimulationRateTraced(b *testing.B) {
	cfg := network.SmallConfig()
	cfg.Arch = arch.Advanced2VC
	cfg.Load = 1.0
	cfg.WarmUp = 0
	cfg.Measure = 2 * units.Millisecond
	cfg.TrackOrderErrors = true
	b.ResetTimer()
	var perf trace.Profile
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		tr, err := trace.New(trace.Config{SampleRate: 0.02, Seed: cfg.Seed})
		if err != nil {
			b.Fatal(err)
		}
		cfg.Tracer = tr
		res, err := network.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		addPerf(&perf, res.Perf)
	}
	b.ReportMetric(float64(perf.Events)/float64(b.N), "events/op")
	writeBenchJSON(b, "simrate_traced", perf)
}

// BenchmarkArchitectures measures one full-load run per architecture, the
// per-run cost entering every sweep above.
func BenchmarkArchitectures(b *testing.B) {
	for _, a := range arch.All() {
		b.Run(a.Flag(), func(b *testing.B) {
			cfg := network.SmallConfig()
			cfg.Arch = a
			cfg.Load = 1.0
			cfg.WarmUp = 0
			cfg.Measure = 2 * units.Millisecond
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				if _, err := network.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// engineDelayMix is the distribution of post delays measured on the 16-host
// Clos at full load (Advanced, seed 1, 22 ms): the share of posts in each
// power-of-two band [lo, 2*lo) cycles. Credit returns take 16-31 cycles,
// link and crossbar completions 128-4095, traffic emission and timers
// longer. The 0.3% of posts in other bands below 4096 and the 0.14% beyond
// 64k cycles are left out, the latter so that far events do not pile up in
// a standing set of fixed size.
var engineDelayMix = []struct {
	lo    units.Time
	share float64
}{
	{16, 0.257}, {128, 0.265}, {256, 0.146}, {512, 0.094}, {1024, 0.115},
	{2048, 0.103}, {4096, 0.009}, {8192, 0.005}, {16384, 0.002}, {32768, 0.001},
}

// BenchmarkEngine measures the discrete-event core: schedule+fire of one
// event at a realistic pending-set size and delay mix. A standing set of
// 4,096 events (the peak pending count of the full-load Clos run) re-posts
// itself with delays drawn from engineDelayMix, so the engine serves the
// same split of near and far events the simulator gives it.
func BenchmarkEngine(b *testing.B) {
	rng := xrand.New(1)
	var total float64
	for _, band := range engineDelayMix {
		total += band.share
	}
	delays := make([]units.Time, 1<<16)
	for i := range delays {
		x := rng.Float64() * total
		band := engineDelayMix[len(engineDelayMix)-1]
		for _, bd := range engineDelayMix {
			if x < bd.share {
				band = bd
				break
			}
			x -= bd.share
		}
		delays[i] = band.lo + units.Time(rng.Int63n(int64(band.lo)))
	}
	eng := sim.New()
	fired, stopAt := 0, 0
	var step func()
	step = func() {
		eng.After(delays[fired&(len(delays)-1)], step)
		fired++
		if fired == stopAt {
			eng.Stop()
		}
	}
	for i := 0; i < 4096; i++ {
		eng.After(delays[len(delays)-1-i], step)
	}
	// Warm up until the set holds its steady mix of near and far events.
	stopAt = 200_000
	eng.Drain()
	b.ResetTimer()
	stopAt += b.N
	eng.Drain()
	b.ReportMetric(1, "events/op")
	writeBenchJSON(b, "engine", trace.Profile{Events: uint64(b.N), WallNs: b.Elapsed().Nanoseconds()})
}

// BenchmarkBuffers measures push+pop through the three buffer disciplines
// under a deadline-shuffled workload — the per-packet cost that separates
// the Ideal architecture's heap from the paper's FIFO-based designs.
func BenchmarkBuffers(b *testing.B) {
	for _, d := range []pqueue.Discipline{pqueue.FIFO, pqueue.Heap, pqueue.TakeOver} {
		b.Run(d.String(), func(b *testing.B) {
			rng := xrand.New(1)
			buf := pqueue.New(d, 1<<40, false)
			pkts := make([]*packet.Packet, 64)
			dl := units.Time(0)
			for i := range pkts {
				dl += units.Time(rng.UniformInt(-5, 40)) // mostly increasing
				pkts[i] = &packet.Packet{ID: uint64(i + 1), Deadline: dl, Size: 64}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Push(pkts[i%len(pkts)])
				if buf.Len() >= 32 {
					buf.Pop()
				}
			}
		})
	}
}

// BenchmarkHotspotTolerance regenerates the hotspot extension experiment:
// half of all best-effort bursts aimed at one host must not disturb the
// regulated classes under the EDF architectures.
func BenchmarkHotspotTolerance(b *testing.B) {
	opt := benchOpt()
	opt.Archs = []arch.Arch{arch.Traditional2VC, arch.Advanced2VC}
	for i := 0; i < b.N; i++ {
		t, err := experiments.HotspotTolerance(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", t)
			// Control latency of Advanced with hotspot on: last row.
			last := t.Rows[len(t.Rows)-1]
			b.ReportMetric(parseF(last[2]), "advanced-hot-ctrl-us")
		}
	}
}

// BenchmarkVideoJitter regenerates the jitter comparison the paper omitted
// for space: EDF architectures must show far tighter video jitter than
// Traditional.
func BenchmarkVideoJitter(b *testing.B) {
	opt := videoOpt()
	for i := 0; i < b.N; i++ {
		t, err := experiments.VideoJitter(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", t)
			for _, row := range t.Rows {
				switch row[0] {
				case arch.Traditional2VC.String():
					b.ReportMetric(parseF(row[1]), "trad-jitter-us")
				case arch.Advanced2VC.String():
					b.ReportMetric(parseF(row[1]), "advanced-jitter-us")
				}
			}
		}
	}
}

// BenchmarkAblationVCTable regenerates ablation A5: no weighted-table
// setting of the Traditional architecture recovers deadline scheduling.
func BenchmarkAblationVCTable(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationVCTable(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", t)
		}
	}
}

// BenchmarkManyVCs regenerates extension E2: a 4-VC Traditional switch
// (one weighted VC per class) against the paper's 2-VC Traditional and
// the Advanced proposal — buying QoS with silicon vs with deadlines.
func BenchmarkManyVCs(b *testing.B) {
	opt := videoOpt()
	for i := 0; i < b.N; i++ {
		t, err := experiments.ManyVCs(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", t)
			for _, row := range t.Rows {
				switch row[0] {
				case arch.Traditional4VC.String():
					b.ReportMetric(parseF(row[2]), "trad4-ctrl-us")
				case arch.Advanced2VC.String():
					b.ReportMetric(parseF(row[2]), "advanced-ctrl-us")
				}
			}
		}
	}
}

// BenchmarkAblationXbarSpeedup regenerates ablation A6: sensitivity of the
// Advanced architecture to internal crossbar speedup.
func BenchmarkAblationXbarSpeedup(b *testing.B) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationXbarSpeedup(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", t)
		}
	}
}

// BenchmarkCollective regenerates extension E3: ring-collective completion
// time under full Table 1 interference, Traditional vs Advanced.
func BenchmarkCollective(b *testing.B) {
	opt := benchOpt()
	opt.Archs = []arch.Arch{arch.Traditional2VC, arch.Advanced2VC}
	opt.Base.Measure = 25 * units.Millisecond
	for i := 0; i < b.N; i++ {
		t, err := experiments.CollectiveCompletion(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", t)
		}
	}
}

// parsimShardRun is one row of BENCH_parsim.json: the cost of the
// reference run at one shard count.
type parsimShardRun struct {
	Shards       int     `json:"shards"`
	N            int     `json:"n"`
	NsPerOp      float64 `json:"ns_per_op"`
	EventsPerOp  float64 `json:"events_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Speedup is sequential wall time over this run's wall time. It only
	// exceeds 1 when the host grants the shards real cores; GOMAXPROCS
	// below records what this machine offered.
	Speedup float64 `json:"speedup"`
}

// BenchmarkParsimScaling measures the sharded engine (internal/parsim) on
// the paper-scale 128-endpoint MIN at 1/2/4/8 shards and persists the
// scaling curve as BENCH_parsim.json. Results are byte-identical across
// shard counts (pinned by the experiments determinism tests); only the
// wall clock moves. Event counts differ across shard counts — a
// cross-shard hop is an event on both engines — so ns_per_op, not
// events_per_sec, is the cross-shard-count comparison axis.
func BenchmarkParsimScaling(b *testing.B) {
	base := network.DefaultConfig() // paper-scale MIN
	base.Arch = arch.Advanced2VC
	base.Load = 1.0
	base.WarmUp = 0
	base.Measure = 3 * units.Millisecond
	runs := map[int]parsimShardRun{}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := base
			cfg.Shards = shards
			var events uint64
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				res, err := network.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				events += res.SimEvents
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			runs[shards] = parsimShardRun{
				Shards:       shards,
				N:            b.N,
				NsPerOp:      float64(b.Elapsed().Nanoseconds()) / float64(b.N),
				EventsPerOp:  float64(events) / float64(b.N),
				EventsPerSec: float64(events) / b.Elapsed().Seconds(),
			}
		})
	}
	seq, ok := runs[1]
	if !ok || seq.NsPerOp <= 0 {
		return
	}
	out := struct {
		Scenario   string           `json:"scenario"`
		Topology   string           `json:"topology"`
		GOMAXPROCS int              `json:"gomaxprocs"`
		Runs       []parsimShardRun `json:"runs"`
	}{Scenario: "parsim", Topology: base.Topology.Name(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, shards := range []int{1, 2, 4, 8} {
		r, ok := runs[shards]
		if !ok {
			continue
		}
		r.Speedup = seq.NsPerOp / r.NsPerOp
		out.Runs = append(out.Runs, r)
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		b.Logf("marshalling BENCH_parsim.json: %v", err)
		return
	}
	if err := os.WriteFile("BENCH_parsim.json", append(data, '\n'), 0o644); err != nil {
		b.Logf("writing BENCH_parsim.json: %v", err)
	}
}
