// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) plus the ablations listed in DESIGN.md. Each function
// maps to one experiment id from DESIGN.md's per-experiment index: it
// builds the configs of its batch, runs them with runAll, and renders the
// same rows/series the paper reports from the results in config order.
//
// Scale note: Options.Base selects the network size and measurement window.
// Paper() uses the full 128-endpoint MIN of §4.1; Quick() uses a 16-host
// network with shorter windows that preserves every qualitative behaviour
// and runs orders of magnitude faster — it is what the Go benchmark harness
// and the test suite drive.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/coflow"
	"deadlineqos/internal/faults"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/network"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/policy"
	"deadlineqos/internal/report"
	"deadlineqos/internal/session"
	"deadlineqos/internal/stats"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
)

// Options selects the scale and coverage of an experiment.
type Options struct {
	Base  network.Config
	Archs []arch.Arch
	Loads []float64
	// Parallelism bounds how many simulations of an experiment run at
	// once; <= 0 divides GOMAXPROCS among each run's Base.Shards engines.
	Parallelism int
}

// WithShards returns o with every simulation configured to run across n
// engine shards (see network.Config.Shards). Results are byte-identical
// at every shard count, so this only changes wall-clock time; it composes
// with Parallelism, which parallelises across runs.
func (o Options) WithShards(n int) Options {
	o.Base.Shards = n
	return o
}

// DefaultLoads is the paper's input-load sweep (10%..100%).
func DefaultLoads() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}

// Paper returns the full-scale experiment options of §4.1: the
// 128-endpoint MIN, all four architectures, the full load sweep.
func Paper() Options {
	return Options{
		Base:  network.DefaultConfig(),
		Archs: arch.All(),
		Loads: DefaultLoads(),
	}
}

// Quick returns reduced-scale options for tests and benchmarks.
func Quick() Options {
	base := network.SmallConfig()
	base.WarmUp = 1 * units.Millisecond
	base.Measure = 12 * units.Millisecond
	return Options{
		Base:  base,
		Archs: arch.All(),
		Loads: []float64{0.2, 0.6, 1.0},
	}
}

// maxLoad returns the highest load of the sweep (the paper measures CDFs
// at 100% input load).
func (o Options) maxLoad() float64 {
	m := 0.0
	for _, l := range o.Loads {
		if l > m {
			m = l
		}
	}
	return m
}

// fullLoad returns the base config on architecture a at the sweep's
// highest load: the operating point of Table 1 and the ablations.
func (o Options) fullLoad(a arch.Arch) network.Config {
	cfg := o.Base
	cfg.Arch, cfg.Load = a, o.maxLoad()
	return cfg
}

// grid returns base at every architecture x load, architecture-major. The
// seed, and therefore the offered traffic, is the same across
// architectures at equal load, which is what makes the paper's
// cross-architecture comparisons paired.
func grid(base network.Config, archs []arch.Arch, loads []float64) []network.Config {
	cfgs := make([]network.Config, 0, len(archs)*len(loads))
	for _, a := range archs {
		for _, l := range loads {
			cfg := base
			cfg.Arch, cfg.Load = a, l
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// runAll runs every config on workerCount's workers and returns the
// results in config order. Each simulation owns all its state, so the
// order in which the workers take them changes nothing. A run whose packet
// conservation does not balance has failed; the error names the lowest
// failing run.
func (o Options) runAll(cfgs []network.Config) ([]*network.Results, error) {
	workers := workerCount(o.Parallelism, o.Base.Shards, runtime.GOMAXPROCS(0))
	results := make([]*network.Results, len(cfgs))
	errs := make([]error, len(cfgs))
	next := make(chan int)
	var wg sync.WaitGroup
	for range min(workers, len(cfgs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := network.Run(cfgs[i])
				if err == nil {
					err = res.Conservation.Check()
				}
				results[i], errs[i] = res, err
			}
		}()
	}
	for i := range cfgs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			c := &cfgs[i]
			return nil, fmt.Errorf("experiments: run %d (%v, load %v, seed %d): %w", i, c.Arch, c.Load, c.Seed, err)
		}
	}
	return results, nil
}

// workerCount is how many simulations run at once: par when positive,
// else as many as procs cores hold when each run keeps shards engine
// goroutines busy, and at least one.
func workerCount(par, shards, procs int) int {
	if par > 0 {
		return par
	}
	return max(1, procs/max(1, shards))
}

func loadPct(l float64) string { return fmt.Sprintf("%.0f%%", 100*l) }

func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

// --- T1: Table 1, the traffic mix ---------------------------------------

// Table1 reproduces Table 1: the per-class traffic injected by every host.
// The configured parameters are reported next to the measured bandwidth
// share of each class in a full-load run, validating the 4 x 25% mix.
func Table1(opt Options) (*report.Table, error) {
	cfg := opt.fullLoad(arch.Advanced2VC)
	results, err := opt.runAll([]network.Config{cfg})
	if err != nil {
		return nil, err
	}
	res := results[0]
	t := report.NewTable("Table 1: traffic injected per host",
		"Name", "% BW (config)", "% BW (offered)", "Application frame", "Notes")
	rows := []struct {
		cl    packet.Class
		frame string
		notes string
	}{
		{packet.Control, "[128 bytes, 2 Kbytes]", "Small control messages"},
		{packet.Multimedia, "[1 Kbyte, 120 Kbytes]", fmt.Sprintf("synthetic MPEG-4 GoP, %d streams/host", res.VideoStreamsPerHost)},
		{packet.BestEffort, "[128 bytes, 100 Kbytes]", "Self-similar internet-like traffic"},
		{packet.Background, "[128 bytes, 100 Kbytes]", "Self-similar internet-like traffic"},
	}
	for _, r := range rows {
		t.Add(r.cl.String(),
			fmt.Sprintf("%.0f", 100*cfg.ClassShare[r.cl]*cfg.Load),
			fmt.Sprintf("%.1f", 100*res.OfferedLoad(r.cl)),
			r.frame, r.notes)
	}
	return t, nil
}

// --- F2-F4: Figures 2, 3 and 4 ----------------------------------------------

// fig2Render builds Figure 2: average latency of Control traffic versus
// input load for the four architectures (left plot), and the CDF of
// Control packet latency at the highest load (right plot).
func fig2Render(opt Options, results []*network.Results) (latency, cdf *report.Table, plot *report.Plot) {
	latency = report.NewTable("Figure 2 (left): Control traffic average latency (us) vs input load",
		append([]string{"load"}, archNames(opt.Archs)...)...)
	plot = report.NewPlot("Figure 2: Control avg latency vs load", "load", "latency (us)")
	fillLatencyVsLoad(latency, plot, opt, results, func(r *network.Results) float64 {
		return units.Time(r.PerClass[packet.Control].PacketLatency.Mean()).Microseconds()
	})
	cdf = cdfTable("Figure 2 (right): CDF of Control latency at full load (us)",
		opt, results, func(r *network.Results) *stats.Histogram {
			return r.PerClass[packet.Control].LatencyHist
		}, func(t units.Time) float64 { return t.Microseconds() })
	return latency, cdf, plot
}

// fig3Render builds Figure 3: average latency of video frames (full frame
// transfers, not packets) versus load, and the CDF of frame latency at the
// highest load. With the §3.1 deadline rule the frame latency should pin
// near the configured target (10 ms) for the EDF architectures.
func fig3Render(opt Options, results []*network.Results) (latency, cdf *report.Table, plot *report.Plot) {
	latency = report.NewTable("Figure 3 (left): Video frame average latency (ms) vs input load",
		append([]string{"load"}, archNames(opt.Archs)...)...)
	plot = report.NewPlot("Figure 3: Video frame avg latency vs load", "load", "latency (ms)")
	fillLatencyVsLoad(latency, plot, opt, results, func(r *network.Results) float64 {
		return units.Time(r.PerClass[packet.Multimedia].FrameLatency.Mean()).Milliseconds()
	})
	cdf = cdfTable("Figure 3 (right): CDF of Video frame latency at full load (ms)",
		opt, results, func(r *network.Results) *stats.Histogram {
			return r.PerClass[packet.Multimedia].FrameHist
		}, func(t units.Time) float64 { return t.Milliseconds() })
	return latency, cdf, plot
}

// fig4Render builds Figure 4: delivered throughput of the two best-effort
// classes versus input load. Under the EDF architectures the classes are
// differentiated by their deadline weights; under Traditional 2 VCs they
// look identical.
func fig4Render(opt Options, results []*network.Results) (*report.Table, *report.Plot) {
	header := []string{"load"}
	for _, a := range opt.Archs {
		header = append(header, a.String()+" BE", a.String()+" BG")
	}
	t := report.NewTable("Figure 4: best-effort classes delivered throughput (% of host link) vs input load", header...)
	plot := report.NewPlot("Figure 4: best-effort throughput vs load", "load", "throughput (%)")
	n := len(opt.Loads)
	for li, load := range opt.Loads {
		row := []any{loadPct(load)}
		for ai := range opt.Archs {
			r := results[ai*n+li]
			row = append(row, 100*r.Throughput(packet.BestEffort), 100*r.Throughput(packet.Background))
		}
		t.AddF(row...)
	}
	for ai, a := range opt.Archs {
		var beY, bgY []float64
		for _, r := range results[ai*n : (ai+1)*n] {
			beY = append(beY, 100*r.Throughput(packet.BestEffort))
			bgY = append(bgY, 100*r.Throughput(packet.Background))
		}
		plot.AddSeries(a.String()+" BE", opt.Loads, beY)
		plot.AddSeries(a.String()+" BG", opt.Loads, bgY)
	}
	return t, plot
}

// Figures bundles the artefacts of Figures 2-4 built from a single sweep.
type Figures struct {
	Fig2Latency, Fig2CDF *report.Table
	Fig3Latency, Fig3CDF *report.Table
	Fig4Throughput       *report.Table
	Plots                []*report.Plot
}

// AllFigures regenerates Figures 2, 3 and 4 from one shared
// (architecture x load) sweep — the same simulations feed all three, as in
// the paper's evaluation, and the sweep cost is paid once.
func AllFigures(opt Options) (*Figures, error) {
	results, err := opt.runAll(grid(opt.Base, opt.Archs, opt.Loads))
	if err != nil {
		return nil, err
	}
	f := &Figures{}
	var p2, p3, p4 *report.Plot
	f.Fig2Latency, f.Fig2CDF, p2 = fig2Render(opt, results)
	f.Fig3Latency, f.Fig3CDF, p3 = fig3Render(opt, results)
	f.Fig4Throughput, p4 = fig4Render(opt, results)
	f.Plots = []*report.Plot{p2, p3, p4}
	return f, nil
}

// --- S1: order-error latency penalty --------------------------------------

// OrderPenalty reproduces the §3.4/§5 claim: relative to the Ideal
// architecture, the Simple proposal increases average Control latency
// (the paper reports up to ~25%) while the Advanced (take-over queue)
// proposal recovers most of it (~5%). Order-error counts come from the
// measurement oracle. The experiment runs twice: with the paper's 20 µs
// eligible-time shaping and with shaping disabled — shaping itself
// suppresses order pressure, so the penalty is most visible without it.
func OrderPenalty(opt Options) (*report.Table, error) {
	archs := []arch.Arch{arch.Ideal, arch.Simple2VC, arch.Advanced2VC}
	t := report.NewTable(
		fmt.Sprintf("Order-error penalty at %s load (Control traffic)", loadPct(opt.maxLoad())),
		"architecture", "shaping", "avg latency (us)", "vs Ideal", "order errors", "errors/dequeue", "take-overs")
	shaped, unshaped := opt.Base, opt.Base
	shaped.TrackOrderErrors, unshaped.TrackOrderErrors = true, true
	unshaped.EligibleLead = 0
	load := []float64{opt.maxLoad()}
	results, err := opt.runAll(append(grid(shaped, archs, load), grid(unshaped, archs, load)...))
	if err != nil {
		return nil, err
	}
	for s, label := range []string{"20us", "off"} {
		block := results[s*len(archs) : (s+1)*len(archs)]
		ideal := block[0].PerClass[packet.Control].PacketLatency.Mean()
		for _, r := range block {
			lat := r.PerClass[packet.Control].PacketLatency.Mean()
			rate := 0.0
			deq := r.XbarTransfers + r.LinkSends
			if deq > 0 {
				rate = float64(r.OrderErrors) / float64(deq)
			}
			t.Add(r.Config.Arch.String(), label,
				fmt.Sprintf("%.2f", units.Time(lat).Microseconds()),
				fmt.Sprintf("%+.1f%%", 100*(lat/ideal-1)),
				fmt.Sprintf("%d", r.OrderErrors),
				fmt.Sprintf("%.4f", rate),
				fmt.Sprintf("%d", r.TakeOvers))
		}
	}
	return t, nil
}

// --- S2: video frames within the target band ------------------------------

// VideoBand reproduces the §5 claim that with the frame-latency deadline
// rule more than 99% of video frames complete within ~1 ms of the 10 ms
// target for the EDF architectures.
func VideoBand(opt Options) (*report.Table, error) {
	results, err := opt.runAll(grid(opt.Base, opt.Archs, []float64{opt.maxLoad()}))
	if err != nil {
		return nil, err
	}
	target := opt.Base.VideoTarget
	t := report.NewTable(
		fmt.Sprintf("Video frames within latency bands at %s load (target %v)", loadPct(opt.maxLoad()), target),
		"architecture", "frames", "mean (ms)", "<= target+10%", "<= target+50%")
	for _, r := range results {
		h := r.PerClass[packet.Multimedia].FrameHist
		fl := r.PerClass[packet.Multimedia].FrameLatency
		t.Add(r.Config.Arch.String(),
			fmt.Sprintf("%d", h.Count()),
			fmt.Sprintf("%.2f", units.Time(fl.Mean()).Milliseconds()),
			fmt.Sprintf("%.1f%%", 100*h.FractionBelow(target+target/10)),
			fmt.Sprintf("%.1f%%", 100*h.FractionBelow(target+target/2)))
	}
	return t, nil
}

// --- A1: eligible-time ablation -------------------------------------------

// AblationEligibleTime varies the eligible-time lead (0 disables the §3.1
// shaping) on the Advanced architecture and reports its effect on order
// pressure and latency: shaping is what keeps multimedia bursts from
// violating the ascending-deadline assumption at the switches.
func AblationEligibleTime(opt Options) (*report.Table, error) {
	leads := []units.Time{0, 5 * units.Microsecond, 20 * units.Microsecond, 100 * units.Microsecond}
	t := report.NewTable("Ablation: eligible-time lead (Advanced 2 VCs, full load)",
		"lead", "control lat (us)", "video frame lat (ms)", "order errors", "take-overs")
	cfgs := make([]network.Config, len(leads))
	for i, lead := range leads {
		cfgs[i] = opt.fullLoad(arch.Advanced2VC)
		cfgs[i].EligibleLead = lead
		cfgs[i].TrackOrderErrors = true
	}
	results, err := opt.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		t.Add(leads[i].String(),
			fmt.Sprintf("%.2f", units.Time(res.PerClass[packet.Control].PacketLatency.Mean()).Microseconds()),
			fmt.Sprintf("%.2f", units.Time(res.PerClass[packet.Multimedia].FrameLatency.Mean()).Milliseconds()),
			fmt.Sprintf("%d", res.OrderErrors),
			fmt.Sprintf("%d", res.TakeOvers))
	}
	return t, nil
}

// --- A2: buffer size ablation ----------------------------------------------

// AblationBufferSize varies the per-VC buffer capacity around the paper's
// 8 KB and reports latency and total throughput for the Advanced
// architecture at full load.
func AblationBufferSize(opt Options) (*report.Table, error) {
	sizes := []units.Size{4 * units.Kilobyte, 8 * units.Kilobyte, 16 * units.Kilobyte, 32 * units.Kilobyte}
	t := report.NewTable("Ablation: switch buffer per VC (Advanced 2 VCs, full load)",
		"buffer/VC", "control lat (us)", "video frame lat (ms)", "total throughput (%)")
	cfgs := make([]network.Config, len(sizes))
	for i, size := range sizes {
		cfgs[i] = opt.fullLoad(arch.Advanced2VC)
		cfgs[i].BufPerVC = size
	}
	results, err := opt.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		var thru float64
		for cl := packet.Class(0); cl < packet.NumClasses; cl++ {
			thru += res.Throughput(cl)
		}
		t.Add(sizes[i].String(),
			fmt.Sprintf("%.2f", units.Time(res.PerClass[packet.Control].PacketLatency.Mean()).Microseconds()),
			fmt.Sprintf("%.2f", units.Time(res.PerClass[packet.Multimedia].FrameLatency.Mean()).Milliseconds()),
			fmt.Sprintf("%.1f", 100*thru))
	}
	return t, nil
}

// --- A3: clock skew ablation -------------------------------------------------

// AblationClockSkew varies the per-node clock skew and shows the TTD
// mechanism (§3.3) keeps QoS intact without clock synchronisation.
func AblationClockSkew(opt Options) (*report.Table, error) {
	skews := []units.Time{0, units.Microsecond, 5 * units.Microsecond, 20 * units.Microsecond}
	t := report.NewTable("Ablation: node clock skew (Advanced 2 VCs, full load)",
		"max skew", "control lat (us)", "control p99 (us)", "video frame lat (ms)")
	cfgs := make([]network.Config, len(skews))
	for i, skew := range skews {
		cfgs[i] = opt.fullLoad(arch.Advanced2VC)
		cfgs[i].ClockSkewMax = skew
	}
	results, err := opt.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		ctrl := &res.PerClass[packet.Control]
		t.Add(skews[i].String(),
			fmt.Sprintf("%.2f", units.Time(ctrl.PacketLatency.Mean()).Microseconds()),
			fmt.Sprintf("%.2f", ctrl.LatencyHist.Quantile(0.99).Microseconds()),
			fmt.Sprintf("%.2f", units.Time(res.PerClass[packet.Multimedia].FrameLatency.Mean()).Milliseconds()))
	}
	return t, nil
}

// --- shared helpers -----------------------------------------------------------

func archNames(archs []arch.Arch) []string {
	names := make([]string, len(archs))
	for i, a := range archs {
		names[i] = a.String()
	}
	return names
}

// fillLatencyVsLoad renders a load-indexed latency table and plot from the
// results of grid(opt.Base, opt.Archs, opt.Loads), extracting the metric
// per results.
func fillLatencyVsLoad(t *report.Table, plot *report.Plot, opt Options,
	results []*network.Results, metric func(*network.Results) float64) {
	n := len(opt.Loads)
	for li, load := range opt.Loads {
		row := []any{loadPct(load)}
		for ai := range opt.Archs {
			row = append(row, metric(results[ai*n+li]))
		}
		t.AddF(row...)
	}
	for ai, a := range opt.Archs {
		var y []float64
		for _, r := range results[ai*n : (ai+1)*n] {
			y = append(y, metric(r))
		}
		plot.AddSeries(a.String(), opt.Loads, y)
	}
}

// cdfTable renders per-architecture latency quantiles at the highest load
// of a sweep.
func cdfTable(title string, opt Options, results []*network.Results,
	hist func(*network.Results) *stats.Histogram, scale func(units.Time) float64) *report.Table {
	quantiles := []float64{0.50, 0.90, 0.99, 0.999, 1.0}
	header := []string{"architecture", "samples"}
	for _, q := range quantiles {
		header = append(header, fmt.Sprintf("p%g", q*100))
	}
	t := report.NewTable(title, header...)
	max := opt.maxLoad()
	for _, r := range results {
		if r.Config.Load != max {
			continue
		}
		h := hist(r)
		row := []any{r.Config.Arch.String(), fmt.Sprintf("%d", h.Count())}
		for _, q := range quantiles {
			row = append(row, scale(h.Quantile(q)))
		}
		t.AddF(row...)
	}
	return t
}

// --- A4: hotspot tolerance ------------------------------------------------------

// HotspotTolerance runs the Table 1 mix with half of all best-effort
// bursts aimed at one victim host (the classic hotspot stress) and reports
// whether each architecture protects the regulated classes. Absolute VC
// priority plus admission-controlled regulated routes should make the EDF
// architectures immune; the Traditional switch shares its best-effort VC
// fate with everyone.
func HotspotTolerance(opt Options) (*report.Table, error) {
	t := report.NewTable("Extension: best-effort hotspot (50% of BE bursts to host 0, full load)",
		"architecture", "hotspot", "control lat (us)", "video frame lat (ms)", "BE thru (%)", "BG thru (%)")
	var cfgs []network.Config
	for _, a := range opt.Archs {
		cfg := opt.fullLoad(a)
		hot := cfg
		hot.HotspotFraction = 0.5
		hot.HotspotHost = 0
		cfgs = append(cfgs, cfg, hot)
	}
	results, err := opt.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		t.Add(res.Config.Arch.String(), onOff(i%2 == 1),
			fmt.Sprintf("%.2f", units.Time(res.PerClass[packet.Control].PacketLatency.Mean()).Microseconds()),
			fmt.Sprintf("%.2f", units.Time(res.PerClass[packet.Multimedia].FrameLatency.Mean()).Milliseconds()),
			fmt.Sprintf("%.1f", 100*res.Throughput(packet.BestEffort)),
			fmt.Sprintf("%.1f", 100*res.Throughput(packet.Background)))
	}
	return t, nil
}

// --- E1: video jitter ------------------------------------------------------------

// VideoJitter reports the jitter figures the paper says it omitted "due to
// lack of space" (§5): per-packet jitter (mean |Δlatency| between
// consecutive packets of a flow) and the frame-latency standard deviation,
// per architecture at full load. The EDF architectures should show
// dramatically tighter figures than Traditional.
func VideoJitter(opt Options) (*report.Table, error) {
	results, err := opt.runAll(grid(opt.Base, opt.Archs, []float64{opt.maxLoad()}))
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Extension: video jitter at %s load", loadPct(opt.maxLoad())),
		"architecture", "packet jitter (us)", "frame lat stddev (ms)", "frame p99-p50 (ms)")
	for _, r := range results {
		mm := &r.PerClass[packet.Multimedia]
		spread := mm.FrameHist.Quantile(0.99) - mm.FrameHist.Quantile(0.50)
		t.Add(r.Config.Arch.String(),
			fmt.Sprintf("%.2f", units.Time(mm.Jitter.Mean()).Microseconds()),
			fmt.Sprintf("%.3f", units.Time(mm.FrameLatency.StdDev()).Milliseconds()),
			fmt.Sprintf("%.3f", spread.Milliseconds()))
	}
	return t, nil
}

// --- A5: Traditional arbitration-table ablation --------------------------------

// AblationVCTable varies the Traditional architecture's weighted VC
// arbitration table — the only QoS knob that architecture has — and shows
// that no weighting recovers what deadline scheduling provides: more
// regulated slots shrink best-effort service without fixing the
// Control/Multimedia mixing inside the regulated VC.
func AblationVCTable(opt Options) (*report.Table, error) {
	tables := []struct {
		name    string
		entries []packet.VC
	}{
		{"1:1", []packet.VC{packet.VCRegulated, packet.VCBestEffort}},
		{"3:1", nil}, // the default
		{"7:1", []packet.VC{
			packet.VCRegulated, packet.VCRegulated, packet.VCRegulated, packet.VCRegulated,
			packet.VCRegulated, packet.VCRegulated, packet.VCRegulated, packet.VCBestEffort}},
	}
	t := report.NewTable("Ablation: Traditional VC arbitration table weights (full load)",
		"table (reg:be)", "control lat (us)", "video frame lat (ms)", "BE thru (%)", "BG thru (%)")
	cfgs := make([]network.Config, len(tables))
	for i, tab := range tables {
		cfgs[i] = opt.fullLoad(arch.Traditional2VC)
		cfgs[i].VCArbitrationTable = tab.entries
	}
	results, err := opt.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		t.Add(tables[i].name,
			fmt.Sprintf("%.2f", units.Time(res.PerClass[packet.Control].PacketLatency.Mean()).Microseconds()),
			fmt.Sprintf("%.2f", units.Time(res.PerClass[packet.Multimedia].FrameLatency.Mean()).Milliseconds()),
			fmt.Sprintf("%.1f", 100*res.Throughput(packet.BestEffort)),
			fmt.Sprintf("%.1f", 100*res.Throughput(packet.Background)))
	}
	return t, nil
}

// --- E2: more VCs instead of deadlines ---------------------------------------

// ManyVCs quantifies the paper's concluding claim: to approach the EDF
// architectures' QoS with conventional means "it would be necessary to
// implement many more VCs", which doubles buffer silicon per port and
// still cannot target per-frame latencies. The experiment compares the
// 2-VC and 4-VC Traditional switches (the latter giving every class its
// own weighted VC) against the Advanced proposal at full load.
func ManyVCs(opt Options) (*report.Table, error) {
	archs := []arch.Arch{arch.Traditional2VC, arch.Traditional4VC, arch.Advanced2VC}
	results, err := opt.runAll(grid(opt.Base, archs, []float64{opt.maxLoad()}))
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Extension: buying QoS with VCs vs deadlines (%s load)", loadPct(opt.maxLoad())),
		"architecture", "VC buffers/port", "control lat (us)", "control p99 (us)",
		"video frame lat (ms)", "frame stddev (ms)", "BE thru (%)", "BG thru (%)")
	for _, r := range results {
		ctrl := &r.PerClass[packet.Control]
		mm := &r.PerClass[packet.Multimedia]
		t.Add(r.Config.Arch.String(),
			fmt.Sprintf("%d", r.Config.Arch.VCs()),
			fmt.Sprintf("%.2f", units.Time(ctrl.PacketLatency.Mean()).Microseconds()),
			fmt.Sprintf("%.2f", ctrl.LatencyHist.Quantile(0.99).Microseconds()),
			fmt.Sprintf("%.2f", units.Time(mm.FrameLatency.Mean()).Milliseconds()),
			fmt.Sprintf("%.3f", units.Time(mm.FrameLatency.StdDev()).Milliseconds()),
			fmt.Sprintf("%.1f", 100*r.Throughput(packet.BestEffort)),
			fmt.Sprintf("%.1f", 100*r.Throughput(packet.Background)))
	}
	return t, nil
}

// --- replicated confidence runs -----------------------------------------------

// Fig2Confidence reruns Figure 2's Control-latency comparison with several
// seeds per cell and reports mean ± standard deviation, quantifying how
// much of the single-run figures is noise. The paired-seed design (the
// same seeds, and therefore the same offered traffic, across
// architectures) matches the paper's methodology.
func Fig2Confidence(opt Options, seeds []uint64) (*report.Table, error) {
	var cfgs []network.Config
	for _, cfg := range grid(opt.Base, opt.Archs, opt.Loads) {
		for _, seed := range seeds {
			cfg.Seed = seed
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := opt.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 2 with %d seeds: Control latency mean±std (us)", len(seeds)),
		append([]string{"load"}, archNames(opt.Archs)...)...)
	for li, load := range opt.Loads {
		row := []string{loadPct(load)}
		for ai := range opt.Archs {
			cell := (ai*len(opt.Loads) + li) * len(seeds)
			var lat stats.Series
			for _, r := range results[cell : cell+len(seeds)] {
				lat.Add(units.Time(r.PerClass[packet.Control].PacketLatency.Mean()).Microseconds())
			}
			row = append(row, fmt.Sprintf("%.2f±%.2f", lat.Mean(), lat.StdDev()))
		}
		t.Add(row...)
	}
	return t, nil
}

// --- A6: crossbar speedup ablation ------------------------------------------

// AblationXbarSpeedup varies the internal crossbar bandwidth relative to
// the link rate. CIOQ switches often run the fabric faster than the links
// to mask arbitration inefficiency; the experiment shows how much of the
// Advanced architecture's performance depends on that (speedup 1 = the
// evaluation's assumption).
func AblationXbarSpeedup(opt Options) (*report.Table, error) {
	speedups := []float64{1.0, 1.5, 2.0}
	t := report.NewTable("Ablation: crossbar speedup (Advanced 2 VCs, full load)",
		"speedup", "control lat (us)", "video frame lat (ms)", "total throughput (%)")
	cfgs := make([]network.Config, len(speedups))
	for i, sp := range speedups {
		cfgs[i] = opt.fullLoad(arch.Advanced2VC)
		cfgs[i].XbarBW = units.Bandwidth(sp * float64(cfgs[i].LinkBW))
	}
	results, err := opt.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		var thru float64
		for cl := packet.Class(0); cl < packet.NumClasses; cl++ {
			thru += res.Throughput(cl)
		}
		t.Add(fmt.Sprintf("%.1fx", speedups[i]),
			fmt.Sprintf("%.2f", units.Time(res.PerClass[packet.Control].PacketLatency.Mean()).Microseconds()),
			fmt.Sprintf("%.2f", units.Time(res.PerClass[packet.Multimedia].FrameLatency.Mean()).Milliseconds()),
			fmt.Sprintf("%.1f", 100*thru))
	}
	return t, nil
}

// --- E3: parallel-application collective ---------------------------------------

// CollectiveCompletion runs an MPI-style ring collective (8 KB chunks,
// N-1 rounds, each round gated on the previous one) while the Table 1
// multimedia and best-effort classes load the network, and reports per
// architecture the collective's completion time, the rounds completed and
// the rounds that met their deadline — the parallel-application
// motivation of the paper's introduction turned into a measurement. The
// rounds are the coflow workload (Config.Coflows): σ-admitted through the
// CAC and carried as regulated traffic under the configured policy.
func CollectiveCompletion(opt Options) (*report.Table, error) {
	base := opt.Base
	// The collective takes Control's share: its admitted rounds share the
	// regulated VC with multimedia, and best-effort fills the rest.
	base.ClassShare = [packet.NumClasses]float64{0, 0.25, 0.375, 0.375}
	base.Coflows = &coflow.Config{Chunk: 8 * units.Kilobyte, StartAt: base.WarmUp}
	results, err := opt.runAll(grid(base, opt.Archs, []float64{opt.maxLoad()}))
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Extension: ring-collective completion under %s interference", loadPct(opt.maxLoad())),
		"architecture", "completion", "rounds completed", "deadline met")
	for _, r := range results {
		c := r.Coflows
		completion := "incomplete"
		if c.AllDone {
			completion = c.CompletionTime.String()
		}
		t.Add(r.Config.Arch.String(), completion,
			fmt.Sprintf("%d/%d", c.Completed, c.Coflows),
			fmt.Sprintf("%d/%d", c.DeadlineMet, c.Coflows))
	}
	return t, nil
}

// --- E4: deadline slack -------------------------------------------------------

// DeadlineSlack reports the delivered deadline-slack picture at full
// load: per architecture and regulated class, the mean and the low
// quantiles of slack (deadline minus delivery time on the destination's
// clock — negative means the deadline was missed) plus the miss rate.
// The low quantiles are the interesting tail: p1 is how close the worst
// percentile of packets came to (or went past) its deadline. An
// observability extension; the paper only reports latency.
func DeadlineSlack(opt Options) (*report.Table, error) {
	results, err := opt.runAll(grid(opt.Base, opt.Archs, []float64{opt.maxLoad()}))
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Extension: delivered deadline slack at %s load (us; negative = late)", loadPct(opt.maxLoad())),
		"architecture", "class", "slack avg", "slack p1", "slack p5", "slack p50", "miss %")
	for _, r := range results {
		for _, cl := range []packet.Class{packet.Control, packet.Multimedia} {
			cs := &r.PerClass[cl]
			t.Add(r.Config.Arch.String(), cl.String(),
				fmt.Sprintf("%.2f", units.Time(cs.Slack.Mean()).Microseconds()),
				fmt.Sprintf("%.2f", cs.SlackHist.Quantile(0.01).Microseconds()),
				fmt.Sprintf("%.2f", cs.SlackHist.Quantile(0.05).Microseconds()),
				fmt.Sprintf("%.2f", cs.SlackHist.Quantile(0.50).Microseconds()),
				fmt.Sprintf("%.2f", 100*r.MissRate(cl)))
		}
	}
	return t, nil
}

// --- R1: chaos — graceful degradation under faults ----------------------------

// chaosLinkIDs enumerates every wired switch output link of a topology.
func chaosLinkIDs(topo topology.Topology) []faults.LinkID {
	var ids []faults.LinkID
	for sw := 0; sw < topo.Switches(); sw++ {
		for p := 0; p < topo.Radix(sw); p++ {
			if topo.Peer(sw, p).ID != -1 {
				ids = append(ids, faults.LinkID{Switch: sw, Port: p})
			}
		}
	}
	return ids
}

// ChaosPlan returns the standard chaos-scenario fault plan for a run of
// the given horizon: a handful of link flaps and derate epochs plus a
// uniform 1e-6 bit-error rate on every link.
func ChaosPlan(seed uint64, topo topology.Topology, horizon units.Time) *faults.Plan {
	plan := faults.RandomPlan(seed, chaosLinkIDs(topo), horizon, faults.RandomConfig{
		Flaps:    4,
		MinDown:  horizon / 200,
		MaxDown:  horizon / 25,
		Derates:  2,
		MinScale: 0.3,
	})
	plan.DefaultBER = 1e-6
	return plan
}

// Chaos runs the robustness scenario: the Table 1 mix at 80% load with
// the ChaosPlan fault schedule and the end-to-end reliability layer, per
// architecture. It reports the regulated classes' service under faults
// next to the healthy baseline, the recovery activity, and verifies the
// conservation invariant — the table shows whether deadline scheduling
// degrades gracefully when the fabric stops being lossless.
func Chaos(opt Options) (*report.Table, error) {
	t := report.NewTable(
		"Robustness: fault injection at 80% load (flaps + derates + 1e-6 BER, end-to-end retransmission)",
		"architecture", "faults", "control p99 (us)", "video frame p99 (ms)",
		"frames <= target+50%", "lost", "corrupt", "retx", "demoted")
	var cfgs []network.Config
	for _, a := range opt.Archs {
		cfg := opt.Base
		cfg.Arch = a
		cfg.Load = 0.8
		cfg.CheckInvariants = true
		chaos := cfg
		chaos.Faults = ChaosPlan(cfg.Seed+7, cfg.Topology, cfg.WarmUp+cfg.Measure)
		chaos.Reliability = hostif.Reliability{Enabled: true}
		cfgs = append(cfgs, cfg, chaos)
	}
	results, err := opt.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		ctrl := &res.PerClass[packet.Control]
		mm := &res.PerClass[packet.Multimedia]
		target := res.Config.VideoTarget
		t.Add(res.Config.Arch.String(), onOff(i%2 == 1),
			fmt.Sprintf("%.2f", ctrl.LatencyHist.Quantile(0.99).Microseconds()),
			fmt.Sprintf("%.2f", mm.FrameHist.Quantile(0.99).Milliseconds()),
			fmt.Sprintf("%.1f%%", 100*mm.FrameHist.FractionBelow(target+target/2)),
			fmt.Sprintf("%d", res.LostOnLink),
			fmt.Sprintf("%d", res.Conservation.ArrivedCorrupt),
			fmt.Sprintf("%d", res.Reliability.Retransmitted),
			fmt.Sprintf("%d", res.Reliability.Demoted))
	}
	return t, nil
}

// --- E5: dynamic session churn --------------------------------------------------

// ChurnPlan returns the fault plan the churn experiment's faulty runs use:
// derate/restore epochs only, no flaps or bit errors, so every fault
// exercises the CAC's revocation path (revoke, re-admit over surviving
// capacity, or downgrade) rather than the reliability layer.
func ChurnPlan(seed uint64, topo topology.Topology, horizon units.Time) *faults.Plan {
	return faults.RandomPlan(seed, chaosLinkIDs(topo), horizon, faults.RandomConfig{
		Derates:  4,
		MinScale: 0.3,
	})
}

// ChurnSessions returns the session configuration the churn experiment
// offers at a given mean per-host inter-arrival time. The 3 ms hold keeps
// tens of sessions concurrently active per host at the aggressive arrival
// rates, pushing reserved bandwidth past the admission limits.
func ChurnSessions(inter units.Time) *session.Config {
	return &session.Config{InterArrival: inter, HoldMean: 3 * units.Millisecond}
}

// Churn measures the dynamic session subsystem: per-host Poisson session
// arrivals negotiate admission with the centralised CAC over in-band
// Control-class messages while the Table 1 mix loads the fabric. The table
// reports, per (background load, offered session rate, faults): the CAC
// accept ratio, the measured in-band setup latency (p50/p99 of the
// client-observed Setup->Grant round trip), reserved vs achieved session
// utilisation, and the revocation/downgrade activity. At saturating
// arrival rates the accept ratio must fall below 1 — the ledger, not the
// fabric, is what says no.
func Churn(opt Options) (*report.Table, error) {
	inters := []units.Time{400 * units.Microsecond, 150 * units.Microsecond, 60 * units.Microsecond}
	t := report.NewTable(
		"Extension: session churn — online admission over in-band signalling (Advanced 2 VCs)",
		"load", "inter-arrival", "faults", "started", "accept",
		"setup p50 (us)", "setup p99 (us)", "reserved util (%)", "achieved util (%)",
		"revoked", "downgraded")
	var cfgs []network.Config
	for _, load := range []float64{0.6, 1.0} {
		for _, ia := range inters {
			cfg := opt.Base
			cfg.Arch = arch.Advanced2VC
			cfg.Load = load
			cfg.Sessions = ChurnSessions(ia)
			cfg.CheckInvariants = true
			faulty := cfg
			faulty.Faults = ChurnPlan(cfg.Seed+11, cfg.Topology, cfg.WarmUp+cfg.Measure)
			cfgs = append(cfgs, cfg, faulty)
		}
	}
	results, err := opt.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		s := res.Sessions
		t.Add(loadPct(res.Config.Load), res.Config.Sessions.InterArrival.String(), onOff(i%2 == 1),
			fmt.Sprintf("%d", s.Started),
			fmt.Sprintf("%.3f", s.AcceptRatio),
			fmt.Sprintf("%.2f", s.SetupP50.Microseconds()),
			fmt.Sprintf("%.2f", s.SetupP99.Microseconds()),
			fmt.Sprintf("%.1f", 100*s.ReservedUtil),
			fmt.Sprintf("%.1f", 100*s.AchievedUtil),
			fmt.Sprintf("%d", s.Revoked),
			fmt.Sprintf("%d", s.Downgraded+s.RevokeDowngrades))
	}
	return t, nil
}

// --- E6: availability under switch failures -------------------------------------

// SwitchFaultPlan returns a topological fault plan: whole-switch outage
// pairs drawn with the given MTTF (outage count scales as horizon/MTTF)
// and an MTTR of horizon/20, so shorter MTTFs mean both more frequent and
// cumulatively longer fabric damage.
func SwitchFaultPlan(seed uint64, topo topology.Topology, horizon, mttf units.Time) *faults.Plan {
	n := int(horizon / mttf)
	if n < 1 {
		n = 1
	}
	if n > 4 {
		n = 4
	}
	return faults.RandomPlan(seed, chaosLinkIDs(topo), horizon, faults.RandomConfig{
		Switches:     topo.Switches(),
		SwitchFaults: n,
		SwitchMTTF:   mttf,
		SwitchMTTR:   horizon / 20,
	})
}

// Availability measures graceful degradation under whole-switch failures:
// a switch-MTTF sweep at 80% load with session churn, the reliability
// layer, and the reroute-or-revoke repair machinery armed. The table
// reports, per MTTF: executed outages, summed downtime, static-flow repair
// activity (rerouted / restored / unreachable), session repair activity
// (rerouted reservations / revocations), the time-to-repair distribution,
// and the packets discarded inside dead switches — all under an intact
// conservation invariant.
func Availability(opt Options) (*report.Table, error) {
	t := report.NewTable(
		"Extension: availability under switch failures (Advanced 2 VCs, 80% load, reroute-or-revoke repair)",
		"switch MTTF", "outages", "downtime", "flows rerouted", "flows restored",
		"flows unreachable", "sess rerouted", "sess revoked", "ttr p50", "ttr p99", "sw drops")
	horizon := opt.Base.WarmUp + opt.Base.Measure
	mttfs := []units.Time{horizon, horizon / 2, horizon / 4}
	cfgs := make([]network.Config, len(mttfs))
	for i, mttf := range mttfs {
		cfg := opt.Base
		cfg.Arch = arch.Advanced2VC
		cfg.Load = 0.8
		cfg.CheckInvariants = true
		cfg.Reliability = hostif.Reliability{Enabled: true}
		cfg.Sessions = ChurnSessions(300 * units.Microsecond)
		cfg.Faults = SwitchFaultPlan(cfg.Seed+13, cfg.Topology, horizon, mttf)
		cfgs[i] = cfg
	}
	results, err := opt.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		av := res.Availability
		if av == nil {
			return nil, fmt.Errorf("experiments: availability mttf=%v: no Availability in results", mttfs[i])
		}
		t.Add(mttfs[i].String(),
			fmt.Sprintf("%d", av.SwitchDowns+av.PortDowns),
			av.Downtime.String(),
			fmt.Sprintf("%d", av.FlowsRerouted),
			fmt.Sprintf("%d", av.FlowsRestored),
			fmt.Sprintf("%d", av.FlowsUnreachable),
			fmt.Sprintf("%d", av.SessionsRerouted),
			fmt.Sprintf("%d", av.SessionsRevoked),
			av.RepairP50.String(),
			av.RepairP99.String(),
			fmt.Sprintf("%d", res.Conservation.DroppedInSwitch))
	}
	return t, nil
}

// --- E7: survivable admission under flash crowds and CAC faults ------------------

// The E7 fault plan cuts the attachment cables of the admission-control
// hosts themselves: one pod's primary delegate dies first, then the root
// CAC host, with overlapping repair windows. The same absolute times
// bound the telemetry window the grants-floor metric is computed over.
const (
	e7PrimaryDownAt = 15 * units.Millisecond
	e7PrimaryUpAt   = 30 * units.Millisecond
	e7RootDownAt    = 20 * units.Millisecond
	e7RootUpAt      = 40 * units.Millisecond
	e7Horizon       = 61 * units.Millisecond
)

// FlashCrowd returns the E7 session workload: a 40 µs mean per-host
// inter-arrival with a 6x flash crowd over [5 ms, 55 ms) — on the 16-host
// quick network that is on the order of 10^5 setup arrivals per run — with
// short 100 µs holds so the ledger churns, and a 500 ns CAC service time
// with a 64-entry control queue: the flash peak (one setup per ~2.7 µs
// fabric-wide) exceeds a single CAC's 2/µs service capacity, so the
// centralised root must shed where four pod delegates ride it out. With
// delegation on, 70% of destinations are pod-local so most setups are
// eligible for one-hop admission, and a 100 µs renewal heartbeat keeps
// the root-failure detection latency well under the outage length.
func FlashCrowd(delegated bool) *session.Config {
	cfg := &session.Config{
		InterArrival: 40 * units.Microsecond,
		HoldMean:     100 * units.Microsecond,
		FlashFactor:  6,
		FlashAt:      5 * units.Millisecond,
		FlashLen:     50 * units.Millisecond,
		CtlService:   500 * units.Nanosecond,
		CtlQueueCap:  64,
	}
	if delegated {
		cfg.Delegation = true
		cfg.LocalFrac = 0.7
		cfg.LeaseRenew = 100 * units.Microsecond
	}
	return cfg
}

// CACOutagePlan kills admission-control hosts by severing their attachment
// cables: one pod's primary delegate over [15, 30) ms (forcing a standby
// promotion in delegated mode) and the root CAC host over [20, 40) ms
// (blacking out centralised admission entirely). The plan is identical in
// both control-plane modes so their rows are directly comparable.
func CACOutagePlan(topo topology.Topology, scfg session.Config) *faults.Plan {
	pods := session.PodPlan(topo, scfg.Manager)
	victim := -1
	for _, p := range pods {
		if p.Primary >= 0 && p.Standby >= 0 && p.Primary != scfg.Manager {
			victim = p.Primary
			break
		}
	}
	plan := &faults.Plan{}
	cut := func(host int, down, up units.Time) {
		sw, port := topo.HostPort(host)
		link := faults.LinkID{Switch: sw, Port: port}
		plan.Events = append(plan.Events,
			faults.Event{At: down, Link: link, Kind: faults.PortDown},
			faults.Event{At: up, Link: link, Kind: faults.PortUp})
	}
	if victim >= 0 {
		cut(victim, e7PrimaryDownAt, e7PrimaryUpAt)
	}
	cut(scfg.Manager, e7RootDownAt, e7RootUpAt)
	return plan
}

// grantsFloor returns the minimum number of admissions granted in any
// whole probe window inside [from, to], summed across every CAC entity
// (root and delegates) from the cumulative Accepted telemetry counters.
// It is the metric that separates the two control planes: with the root's
// cable cut, the centralised plane's floor drops to zero while delegates
// keep admitting pod-local setups against their leases.
func grantsFloor(tel *trace.Telemetry, from, to units.Time) (uint64, bool) {
	if tel == nil || len(tel.Sessions) == 0 {
		return 0, false
	}
	totals := map[units.Time]uint64{}
	var times []units.Time
	for i := range tel.Sessions {
		s := &tel.Sessions[i]
		if _, seen := totals[s.T]; !seen {
			times = append(times, s.T)
		}
		totals[s.T] += s.Accepted
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	floor, found := ^uint64(0), false
	for i := 1; i < len(times); i++ {
		if times[i-1] < from || times[i] > to {
			continue
		}
		if d := totals[times[i]] - totals[times[i-1]]; !found || d < floor {
			floor, found = d, true
		}
	}
	return floor, found
}

// --- E8: pluggable scheduling policies -------------------------------------

// PolicyList returns the E8 roster: the seed EDF takeover architecture as
// the default policy, the coflow-deadline variant, and the two
// bounded-injection-queue droppers — value-aware eviction and the
// value-blind tail-drop control, both with the same byte bound so the
// only difference is the victim-selection rule.
func PolicyList() []policy.Policy {
	return []policy.Policy{
		policy.Default(),
		policy.CoflowEDF(),
		policy.ValueDrop(32*units.Kilobyte, false),
		policy.ValueDrop(32*units.Kilobyte, true),
	}
}

// PolicyScenario builds the shared E8 scenario on base: the Table 1 mix
// reweighted toward the value-dense Best-effort class, a 70% best-effort
// hotspot aimed at host 0 (the backpressure that fills bounded injection
// queues), and a ring coflow workload σ-admitted through the CAC at the
// end of warm-up. Every policy row of the E8 table runs exactly this
// config, so the columns differ only by scheduling policy.
func PolicyScenario(base network.Config) network.Config {
	cfg := base
	cfg.Arch = arch.Advanced2VC
	cfg.Load = 1.0
	cfg.ClassShare = [packet.NumClasses]float64{0.1, 0.1, 0.6, 0.2}
	cfg.HotspotFraction = 0.7
	cfg.HotspotHost = 0
	cfg.CheckInvariants = true
	cfg.Coflows = &coflow.Config{StartAt: cfg.WarmUp, Rounds: 4, Chunk: 4 * units.Kilobyte}
	return cfg
}

// Policies runs the E8 comparison: every shipped scheduling policy over
// the one PolicyScenario config. The coflow columns show what deadline
// awareness buys the collective (the coflow-edf policy stamps admitted
// rounds with their collective deadline instead of a per-packet virtual
// clock); the weighted-goodput column shows what value awareness buys the
// best-effort VC when the bounded queue must shed (value-drop evicts the
// cheapest resident, value-drop-tail drops arrivals blindly).
func Policies(opt Options) (*report.Table, error) {
	t := report.NewTable(
		"Extension: scheduling policies on one scenario (ring coflows + best-effort hotspot, full load)",
		"policy", "adm/rej", "completed", "deadline met", "completion", "max lateness",
		"weighted goodput", "evictions", "evicted value")
	pols := PolicyList()
	cfgs := make([]network.Config, len(pols))
	for i, pol := range pols {
		cfgs[i] = PolicyScenario(opt.Base)
		cfgs[i].Policy = pol
	}
	results, err := opt.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		c := res.Coflows
		completion := "incomplete"
		if c.AllDone {
			completion = c.CompletionTime.String()
		}
		var evictedValue int64
		for cl := packet.Class(0); cl < packet.NumClasses; cl++ {
			evictedValue += res.PerClass[cl].EvictedValue
		}
		t.Add(res.Policy,
			fmt.Sprintf("%d/%d", c.Admitted, c.Rejected),
			fmt.Sprintf("%d/%d", c.Completed, c.Coflows),
			fmt.Sprintf("%d/%d", c.DeadlineMet, c.Coflows),
			completion,
			c.MaxLateness.String(),
			fmt.Sprintf("%.3f", res.WeightedGoodput()),
			fmt.Sprintf("%d", res.Conservation.EvictedAtNIC),
			fmt.Sprintf("%d", evictedValue))
	}
	return t, nil
}

// Survivable measures the survivable admission control plane (E7): the
// same 10^5-arrival flash crowd offered to the centralised root CAC and to
// the delegated per-pod control plane, each with and without the
// CAC-killing fault plan. The table reports setups started, the accept
// ratio, the in-band setup p99, the share of grants issued one hop away by
// delegates, control-queue sheds, failover activity (promotions/reclaims)
// with the fault-to-restored-admission TTR distribution, and the
// grants-floor: the worst per-millisecond admission count while the root
// CAC host is dark. Delegated mode must keep that floor above zero.
func Survivable(opt Options) (*report.Table, error) {
	t := report.NewTable(
		"Extension: survivable admission — per-pod CAC delegates vs centralised root (6x flash crowd)",
		"control plane", "CAC faults", "started", "accept", "setup p99 (us)",
		"local share", "shed", "dark rejects", "promoted/reclaimed", "ttr p50", "ttr p99",
		"grants floor (root dark)")
	var cfgs []network.Config
	for _, delegated := range []bool{false, true} {
		cfg := opt.Base
		cfg.Arch = arch.Advanced2VC
		cfg.Load = 0.5
		cfg.WarmUp = units.Millisecond
		cfg.Measure = e7Horizon - units.Millisecond
		cfg.CheckInvariants = true
		cfg.ProbeInterval = units.Millisecond
		cfg.Sessions = FlashCrowd(delegated)
		faulty := cfg
		faulty.Faults = CACOutagePlan(cfg.Topology, cfg.Sessions.WithDefaults())
		cfgs = append(cfgs, cfg, faulty)
	}
	results, err := opt.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		delegated, faulty := res.Config.Sessions.Delegation, i%2 == 1
		s, cp := res.Sessions, res.ControlPlane
		mode := "centralised"
		if delegated {
			mode = "delegated"
		}
		local, ttr50, ttr99, floor := "-", "-", "-", "-"
		if delegated && s.Accepted > 0 {
			local = fmt.Sprintf("%.1f%%", 100*float64(cp.LocalGrants)/float64(s.Accepted))
		}
		if cp.FailoverCount > 0 {
			ttr50, ttr99 = cp.FailoverP50.String(), cp.FailoverP99.String()
		}
		if faulty {
			if f, ok := grantsFloor(res.Telemetry, e7RootDownAt, e7RootUpAt); ok {
				floor = fmt.Sprintf("%d/ms", f)
			}
		}
		t.Add(mode, onOff(faulty),
			fmt.Sprintf("%d", s.Started),
			fmt.Sprintf("%.3f", s.AcceptRatio),
			fmt.Sprintf("%.2f", s.SetupP99.Microseconds()),
			local,
			fmt.Sprintf("%d", cp.Shed),
			fmt.Sprintf("%d", cp.BreakerRejects),
			fmt.Sprintf("%d/%d", cp.Promotions, cp.Reclaims),
			ttr50, ttr99, floor)
	}
	return t, nil
}
