package network

import (
	"testing"

	"deadlineqos/internal/analytic"
	"deadlineqos/internal/arch"
	"deadlineqos/internal/faults"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
)

// quickCfg returns a small, fast configuration for functional tests.
func quickCfg(a arch.Arch, load float64) Config {
	cfg := SmallConfig()
	cfg.Arch = a
	cfg.Load = load
	cfg.WarmUp = 1 * units.Millisecond
	cfg.Measure = 10 * units.Millisecond
	return cfg
}

func TestValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Topology = nil },
		func(c *Config) { c.LinkBW = 0 },
		func(c *Config) { c.Load = 1.5 },
		func(c *Config) { c.Load = -0.1 },
		func(c *Config) { c.ClassShare = [packet.NumClasses]float64{0.5, 0.5, 0.5, 0.5} },
		func(c *Config) { c.MTU = 4 },
		func(c *Config) { c.BufPerVC = 100 },
		func(c *Config) { c.Measure = 0 },
		func(c *Config) { c.ControlDests = 0 },
		func(c *Config) { c.ControlDests = 1000 },
		func(c *Config) { c.BEWeight = 0 },
		func(c *Config) { c.VideoPeriod = 0 },
	}
	for i, mutate := range bad {
		cfg := SmallConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPacketConservation(t *testing.T) {
	for _, a := range arch.All() {
		res, err := Run(quickCfg(a, 0.4))
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		var gen, dlvr uint64
		for cl := packet.Class(0); cl < packet.NumClasses; cl++ {
			gen += res.PerClass[cl].GeneratedPackets
			dlvr += res.PerClass[cl].DeliveredPackets
		}
		if dlvr > gen {
			t.Errorf("%v: delivered %d > generated %d", a, dlvr, gen)
		}
		if dlvr == 0 {
			t.Errorf("%v: nothing delivered", a)
		}
		// Undelivered measured packets must be bounded by what is still
		// queued (pending counts also include warm-up packets, so this
		// is a loose sanity bound, not an exact balance).
		if gen-dlvr > uint64(res.PendingAtHorizon)+uint64(gen/2) {
			t.Errorf("%v: %d packets unaccounted (pending %d)", a, gen-dlvr, res.PendingAtHorizon)
		}
	}
}

func TestSeedsChangeOutcome(t *testing.T) {
	cfg := quickCfg(arch.Advanced2VC, 0.6)
	a, _ := Run(cfg)
	cfg.Seed = 99
	b, _ := Run(cfg)
	if a.SimEvents == b.SimEvents &&
		a.PerClass[packet.Control].PacketLatency.Mean() == b.PerClass[packet.Control].PacketLatency.Mean() {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestControlLatencyEDFBeatsTraditionalAtHighLoad(t *testing.T) {
	// The paper's headline (Figure 2): at high load, EDF-based
	// architectures keep Control latency near the unloaded floor while
	// Traditional 2 VCs degrades severely.
	lat := map[arch.Arch]float64{}
	for _, a := range []arch.Arch{arch.Traditional2VC, arch.Ideal, arch.Advanced2VC} {
		res, err := Run(quickCfg(a, 1.0))
		if err != nil {
			t.Fatal(err)
		}
		lat[a] = res.PerClass[packet.Control].PacketLatency.Mean()
		if res.PerClass[packet.Control].DeliveredPackets == 0 {
			t.Fatalf("%v: no control packets delivered", a)
		}
	}
	t.Logf("control latency: trad=%v ideal=%v advanced=%v",
		units.Time(lat[arch.Traditional2VC]), units.Time(lat[arch.Ideal]), units.Time(lat[arch.Advanced2VC]))
	if lat[arch.Ideal] >= lat[arch.Traditional2VC] {
		t.Errorf("Ideal control latency %v not below Traditional %v",
			units.Time(lat[arch.Ideal]), units.Time(lat[arch.Traditional2VC]))
	}
	if lat[arch.Advanced2VC] >= lat[arch.Traditional2VC] {
		t.Errorf("Advanced control latency %v not below Traditional %v",
			units.Time(lat[arch.Advanced2VC]), units.Time(lat[arch.Traditional2VC]))
	}
}

func TestOrderErrorOrdering(t *testing.T) {
	// Ideal commits zero order errors; Advanced strictly fewer than
	// Simple (§3.4).
	errs := map[arch.Arch]uint64{}
	for _, a := range []arch.Arch{arch.Ideal, arch.Simple2VC, arch.Advanced2VC} {
		cfg := quickCfg(a, 1.0)
		cfg.TrackOrderErrors = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		errs[a] = res.OrderErrors
	}
	t.Logf("order errors: ideal=%d simple=%d advanced=%d",
		errs[arch.Ideal], errs[arch.Simple2VC], errs[arch.Advanced2VC])
	if errs[arch.Ideal] != 0 {
		t.Errorf("Ideal committed %d order errors, want 0", errs[arch.Ideal])
	}
	if errs[arch.Simple2VC] == 0 {
		t.Error("Simple committed no order errors; scenario too weak to compare")
	}
	if errs[arch.Advanced2VC] >= errs[arch.Simple2VC] {
		t.Errorf("Advanced (%d) did not reduce order errors vs Simple (%d)",
			errs[arch.Advanced2VC], errs[arch.Simple2VC])
	}
}

func TestVideoFrameLatencyNearTarget(t *testing.T) {
	// Figure 3: with frame-latency deadlines the average video frame
	// latency sits near the configured 10 ms target for EDF
	// architectures.
	cfg := quickCfg(arch.Advanced2VC, 0.8)
	cfg.Measure = 60 * units.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fl := res.PerClass[packet.Multimedia].FrameLatency
	if fl.Count() < 50 {
		t.Fatalf("only %d frames measured", fl.Count())
	}
	mean := units.Time(fl.Mean())
	if mean < 8*units.Millisecond || mean > 12*units.Millisecond {
		t.Fatalf("video frame latency %v, want ~10ms", mean)
	}
	t.Logf("frame latency mean=%v max=%v over %d frames", mean, units.Time(fl.Max()), fl.Count())
}

func TestBestEffortDifferentiationUnderEDF(t *testing.T) {
	// Figure 4: under EDF architectures the two best-effort classes are
	// differentiated by their deadline weights; under Traditional they
	// receive identical treatment.
	check := func(a arch.Arch) (be, bg float64) {
		cfg := quickCfg(a, 1.0)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerClass[packet.BestEffort].PacketLatency.Mean(),
			res.PerClass[packet.Background].PacketLatency.Mean()
	}
	be, bg := check(arch.Advanced2VC)
	t.Logf("EDF: best-effort lat=%v background lat=%v", units.Time(be), units.Time(bg))
	if bg <= be {
		t.Errorf("EDF did not favour the weighted best-effort class: be=%v bg=%v",
			units.Time(be), units.Time(bg))
	}
	tbe, tbg := check(arch.Traditional2VC)
	t.Logf("Traditional: best-effort lat=%v background lat=%v", units.Time(tbe), units.Time(tbg))
	ratioEDF := bg / be
	ratioTrad := tbg / tbe
	if ratioTrad > ratioEDF {
		t.Errorf("Traditional differentiates more than EDF: %v vs %v", ratioTrad, ratioEDF)
	}
}

func TestZeroLoadRuns(t *testing.T) {
	cfg := quickCfg(arch.Advanced2VC, 0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var gen uint64
	for cl := packet.Class(0); cl < packet.NumClasses; cl++ {
		gen += res.PerClass[cl].GeneratedPackets
	}
	if gen != 0 {
		t.Fatalf("zero load generated %d packets", gen)
	}
}

func TestSingleClassWorkload(t *testing.T) {
	// Only control traffic: other classes silent.
	cfg := quickCfg(arch.Simple2VC, 0.5)
	cfg.ClassShare = [packet.NumClasses]float64{0.5, 0, 0, 0}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerClass[packet.Control].DeliveredPackets == 0 {
		t.Fatal("control class silent")
	}
	for _, cl := range []packet.Class{packet.Multimedia, packet.BestEffort, packet.Background} {
		if res.PerClass[cl].GeneratedPackets != 0 {
			t.Fatalf("%v generated packets with zero share", cl)
		}
	}
}

func TestClockSkewDoesNotBreakService(t *testing.T) {
	// §3.3: the TTD mechanism makes scheduling tolerant of unsynchronised
	// clocks. With substantial skew the network must still deliver
	// control traffic at low latency.
	base := quickCfg(arch.Advanced2VC, 0.8)
	resNoSkew, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	skewed := base
	skewed.ClockSkewMax = 5 * units.Microsecond
	resSkew, err := Run(skewed)
	if err != nil {
		t.Fatal(err)
	}
	l0 := resNoSkew.PerClass[packet.Control].PacketLatency.Mean()
	l1 := resSkew.PerClass[packet.Control].PacketLatency.Mean()
	t.Logf("control latency: skew0=%v skew5us=%v", units.Time(l0), units.Time(l1))
	if l1 > 3*l0+float64(10*units.Microsecond) {
		t.Fatalf("clock skew destroyed service: %v vs %v", units.Time(l1), units.Time(l0))
	}
}

func TestKAryNTreeTopologyRuns(t *testing.T) {
	tree, err := topology.NewKAryNTree(2, 3) // 8 hosts, 4-port switches
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(arch.Advanced2VC, 0.5)
	cfg.Topology = tree
	cfg.ControlDests = 4
	cfg.BEDests = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerClass[packet.Control].DeliveredPackets == 0 {
		t.Fatal("no deliveries on k-ary n-tree")
	}
}

func TestThroughputScalesWithLoad(t *testing.T) {
	var prev float64
	for _, load := range []float64{0.2, 0.5, 0.8} {
		res, err := Run(quickCfg(arch.Advanced2VC, load))
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for cl := packet.Class(0); cl < packet.NumClasses; cl++ {
			total += res.Throughput(cl)
		}
		if total <= prev {
			t.Fatalf("throughput did not grow with load: %v at %v (prev %v)", total, load, prev)
		}
		prev = total
	}
}

func TestDegradedLinkValidation(t *testing.T) {
	cfg := quickCfg(arch.Advanced2VC, 0.5)
	cfg.DegradedLinks = []DegradedLink{{Switch: 0, Port: 0, Scale: 1.5}}
	if _, err := New(cfg); err == nil {
		t.Error("bad degrade scale accepted")
	}
	cfg.DegradedLinks = []DegradedLink{{Switch: 99, Port: 0, Scale: 0.5}}
	if _, err := New(cfg); err == nil {
		t.Error("out-of-topology degraded link accepted")
	}
	cfg.DegradedLinks = []DegradedLink{{Switch: 0, Port: 0, Scale: -0.5}}
	if _, err := New(cfg); err == nil {
		t.Error("negative degrade scale accepted")
	}
	cfg.DegradedLinks = []DegradedLink{{Switch: 0, Port: 2, Scale: 0.5}, {Switch: 0, Port: 2, Scale: 0.7}}
	if _, err := New(cfg); err == nil {
		t.Error("duplicate degraded link accepted")
	}
	cfg.DegradedLinks = []DegradedLink{{Switch: 0, Port: -1, Scale: 0.5}}
	if _, err := New(cfg); err == nil {
		t.Error("negative port accepted")
	}
}

func TestFaultConfigValidation(t *testing.T) {
	base := quickCfg(arch.Advanced2VC, 0.5)

	cfg := base
	cfg.Faults = &faults.Plan{Events: []faults.Event{
		{At: 0, Link: faults.LinkID{Switch: 99, Port: 0}, Kind: faults.LinkDown},
	}}
	if _, err := New(cfg); err == nil {
		t.Error("out-of-topology fault link accepted")
	}

	cfg = base
	cfg.Faults = &faults.Plan{DefaultBER: 2}
	if _, err := New(cfg); err == nil {
		t.Error("BER >= 1 accepted")
	}

	cfg = base
	cfg.Reliability = hostif.Reliability{Enabled: true, Backoff: 0.5}
	if _, err := New(cfg); err == nil {
		t.Error("shrinking retransmission backoff accepted")
	}

	cfg = base
	cfg.Reliability = hostif.Reliability{Enabled: true, Timeout: -units.Microsecond}
	if _, err := New(cfg); err == nil {
		t.Error("negative retransmission timeout accepted")
	}

	// A valid plan and reliability config must build.
	cfg = base
	cfg.Faults = &faults.Plan{Events: []faults.Event{
		{At: units.Millisecond, Link: faults.LinkID{Switch: 0, Port: 0}, Kind: faults.LinkDown},
		{At: 2 * units.Millisecond, Link: faults.LinkID{Switch: 0, Port: 0}, Kind: faults.LinkUp},
	}}
	cfg.Reliability = hostif.Reliability{Enabled: true}
	if _, err := New(cfg); err != nil {
		t.Errorf("valid fault configuration rejected: %v", err)
	}
}

func TestDegradedLinkPreservesRegulatedService(t *testing.T) {
	// Derate one leaf uplink to 20%: admission steers video reservations
	// around it, so regulated service must survive almost unchanged even
	// though the data plane genuinely slowed that cable down.
	healthy := quickCfg(arch.Advanced2VC, 0.8)
	resH, err := Run(healthy)
	if err != nil {
		t.Fatal(err)
	}
	degraded := healthy
	degraded.DegradedLinks = []DegradedLink{{Switch: 0, Port: 4, Scale: 0.2}}
	resD, err := Run(degraded)
	if err != nil {
		t.Fatal(err)
	}
	lh := resH.PerClass[packet.Control].PacketLatency.Mean()
	ld := resD.PerClass[packet.Control].PacketLatency.Mean()
	t.Logf("control latency healthy=%v degraded=%v", units.Time(lh), units.Time(ld))
	// Control flows are deliberately unreserved (§3.1: "no connection
	// admission"), so those hashed onto the slow cable do pay for it —
	// but the EDF scheduling keeps the class orders of magnitude below
	// the Traditional architecture's congested latencies.
	if ld > float64(units.Millisecond) {
		t.Fatalf("degraded link destroyed control service: %v vs %v",
			units.Time(ld), units.Time(lh))
	}
	fm := resD.PerClass[packet.Multimedia].FrameLatency
	if fm.Count() > 0 {
		mean := units.Time(fm.Mean())
		if mean > 12*units.Millisecond {
			t.Fatalf("video frames missed target on degraded network: %v", mean)
		}
	}
}

func TestNoFlowReordersEndToEnd(t *testing.T) {
	// The whole point of the appendix: whatever the architecture, packets
	// of a single flow must arrive at their destination in sequence
	// order. Verified across the complete network under full load for
	// all four architectures.
	for _, a := range arch.All() {
		cfg := quickCfg(a, 1.0)
		cfg.Measure = 5 * units.Millisecond
		checkNoReorder(t, cfg)
	}
}

// fullTracer returns a tracer that records every packet, with an event
// cap that no run of these tests reaches (walk checks that it did not).
func fullTracer(t *testing.T) *trace.Tracer {
	t.Helper()
	tr, err := trace.New(trace.Config{SampleRate: 1, MaxEvents: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// walk fails t if tr dropped events at its cap, and otherwise calls fn
// with every event tr recorded, in recording order.
func walk(t *testing.T, tr *trace.Tracer, fn func(trace.Event)) {
	t.Helper()
	if d := tr.Dropped(); d > 0 {
		t.Fatalf("full-sampling tracer dropped %d events at its cap", d)
	}
	tr.Each(fn)
}

// checkNoReorder runs cfg with a full-sampling tracer and fails t if any
// flow's packets arrive out of sequence order, or if nothing arrives at
// all.
func checkNoReorder(t *testing.T, cfg Config) {
	t.Helper()
	cfg.Tracer = fullTracer(t)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	lastSeq := map[packet.FlowID]int64{}
	violations := 0
	walk(t, cfg.Tracer, func(ev trace.Event) {
		if ev.Kind != trace.KindDelivered {
			return
		}
		if last, ok := lastSeq[ev.Flow]; ok && int64(ev.Seq) <= last {
			violations++
		}
		lastSeq[ev.Flow] = int64(ev.Seq)
	})
	if violations > 0 {
		t.Errorf("%v: %d out-of-order deliveries", cfg.Arch, violations)
	}
	if len(lastSeq) == 0 {
		t.Errorf("%v: trace saw no deliveries", cfg.Arch)
	}
}

// TestTraceSeesAllStages: a full-sampling tracer sees every packet's
// generation, injection and delivery, whether the run is split across
// shards or not.
func TestTraceSeesAllStages(t *testing.T) {
	for _, shards := range []int{1, 2} {
		cfg := quickCfg(arch.Advanced2VC, 0.3)
		cfg.Measure = 2 * units.Millisecond
		cfg.Shards = shards
		cfg.Tracer = fullTracer(t)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var gen, inj, dlv uint64
		walk(t, cfg.Tracer, func(ev trace.Event) {
			switch ev.Kind {
			case trace.KindGenerated:
				gen++
			case trace.KindInjected:
				inj++
			case trace.KindDelivered:
				dlv++
			}
		})
		if gen == 0 || inj == 0 || dlv == 0 {
			t.Fatalf("%d shards: trace missed stages: gen=%d inj=%d dlv=%d", shards, gen, inj, dlv)
		}
		if inj > gen || dlv > inj {
			t.Fatalf("%d shards: stage counts inconsistent: gen=%d inj=%d dlv=%d", shards, gen, inj, dlv)
		}
		if c := res.Conservation; gen != c.Generated || inj != c.InjectedCopies || dlv != c.DeliveredUnique {
			t.Fatalf("%d shards: trace saw gen=%d inj=%d dlv=%d, conservation counts %d, %d, %d",
				shards, gen, inj, dlv, c.Generated, c.InjectedCopies, c.DeliveredUnique)
		}
	}
}

func TestHotspotSkewsBestEffortDestinations(t *testing.T) {
	cfg := quickCfg(arch.Advanced2VC, 0.6)
	cfg.Measure = 4 * units.Millisecond
	cfg.HotspotFraction = 0.5
	cfg.HotspotHost = 3
	cfg.Tracer = fullTracer(t)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	toHot, total := 0, 0
	walk(t, cfg.Tracer, func(ev trace.Event) {
		if ev.Kind == trace.KindGenerated && !ev.Class.Regulated() {
			total++
			if ev.Dst == 3 {
				toHot++
			}
		}
	})
	if total == 0 {
		t.Fatal("no best-effort packets generated")
	}
	frac := float64(toHot) / float64(total)
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("hotspot fraction = %.2f, want ~0.5", frac)
	}
}

func TestHotspotValidation(t *testing.T) {
	cfg := quickCfg(arch.Advanced2VC, 0.5)
	cfg.HotspotFraction = 1.0
	if _, err := New(cfg); err == nil {
		t.Error("hotspot fraction 1.0 accepted")
	}
	cfg.HotspotFraction = 0.5
	cfg.HotspotHost = 999
	if _, err := New(cfg); err == nil {
		t.Error("out-of-range hotspot host accepted")
	}
}

func TestHotspotProtectsRegulatedUnderEDF(t *testing.T) {
	// With half of all best-effort bursts converging on host 0, the
	// regulated control class must keep near-baseline latency under the
	// EDF architecture (absolute VC priority).
	base := quickCfg(arch.Advanced2VC, 1.0)
	base.Measure = 6 * units.Millisecond
	resOff, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	hot := base
	hot.HotspotFraction = 0.5
	resOn, err := Run(hot)
	if err != nil {
		t.Fatal(err)
	}
	off := resOff.PerClass[packet.Control].PacketLatency.Mean()
	on := resOn.PerClass[packet.Control].PacketLatency.Mean()
	t.Logf("control latency hotspot off=%v on=%v", units.Time(off), units.Time(on))
	if on > 3*off+float64(10*units.Microsecond) {
		t.Fatalf("hotspot disturbed regulated traffic: %v vs %v", units.Time(on), units.Time(off))
	}
}

func TestVideoTraceDrivenRun(t *testing.T) {
	cfg := quickCfg(arch.Advanced2VC, 0.6)
	cfg.Measure = 30 * units.Millisecond
	cfg.VideoTraceFrames = []units.Size{8 * units.Kilobyte, 90 * units.Kilobyte, 20 * units.Kilobyte}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mm := &res.PerClass[packet.Multimedia]
	if mm.FrameLatency.Count() == 0 {
		t.Fatal("trace-driven video produced no frames")
	}
	mean := units.Time(mm.FrameLatency.Mean())
	if mean < 9*units.Millisecond || mean > 11*units.Millisecond {
		t.Fatalf("trace-driven frame latency = %v, want ~10ms target", mean)
	}
}

func TestTraditional4VCIsolatesControl(t *testing.T) {
	// The 4-VC Traditional switch gives Control its own VC: its latency
	// must improve dramatically over the 2-VC Traditional (where Control
	// shares a FIFO VC with Multimedia), yet video frame latency remains
	// untargeted (no deadline scheduling).
	lat := map[arch.Arch]float64{}
	var frameStd4 float64
	for _, a := range []arch.Arch{arch.Traditional2VC, arch.Traditional4VC, arch.Advanced2VC} {
		cfg := quickCfg(a, 1.0)
		cfg.Measure = 20 * units.Millisecond
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lat[a] = res.PerClass[packet.Control].PacketLatency.Mean()
		if a == arch.Traditional4VC {
			frameStd4 = res.PerClass[packet.Multimedia].FrameLatency.StdDev()
		}
	}
	t.Logf("control latency: 2vc=%v 4vc=%v advanced=%v",
		units.Time(lat[arch.Traditional2VC]), units.Time(lat[arch.Traditional4VC]),
		units.Time(lat[arch.Advanced2VC]))
	if lat[arch.Traditional4VC] >= lat[arch.Traditional2VC]/2 {
		t.Errorf("4-VC Traditional did not improve control: %v vs %v",
			units.Time(lat[arch.Traditional4VC]), units.Time(lat[arch.Traditional2VC]))
	}
	// But per-frame latency targeting needs deadlines: the 4-VC frame
	// latency spread must remain far wider than the EDF architectures'
	// (which pin every frame to the target).
	if frameStd4 < float64(500*units.Microsecond) {
		t.Errorf("4-VC video frame stddev %v suspiciously tight; deadline targeting should be impossible",
			units.Time(frameStd4))
	}
}

func TestTraditional4VCNoReorder(t *testing.T) {
	cfg := quickCfg(arch.Traditional4VC, 1.0)
	cfg.Measure = 4 * units.Millisecond
	checkNoReorder(t, cfg)
}

func TestUnloadedLatencyMatchesAnalyticModel(t *testing.T) {
	// Golden-model anchor: at negligible load every control packet's
	// end-to-end latency must equal the closed-form unloaded prediction
	// exactly (no queueing anywhere to perturb it).
	cfg := quickCfg(arch.Advanced2VC, 0.01)
	cfg.ClassShare = [packet.NumClasses]float64{1, 0, 0, 0} // 1% total, all control
	cfg.WarmUp = 0
	cfg.Measure = 2 * units.Millisecond
	cfg.ControlDests = 2

	type obs struct {
		size units.Size
		hops int
		lat  units.Time
	}
	cfg.Tracer = fullTracer(t)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	// A delivered packet has crossed one switch per route hop, and its
	// generation event is its creation time.
	var seen []obs
	created := map[uint64]units.Time{}
	walk(t, cfg.Tracer, func(ev trace.Event) {
		switch ev.Kind {
		case trace.KindGenerated:
			created[ev.Pkt] = ev.T
		case trace.KindDelivered:
			seen = append(seen, obs{ev.Size, ev.Hop, ev.T - created[ev.Pkt]})
		}
	})
	if len(seen) < 20 {
		t.Fatalf("only %d probes delivered", len(seen))
	}
	exact := 0
	for _, o := range seen {
		want := analytic.UnloadedPacketLatency(o.size, o.hops, cfg.LinkBW, cfg.XbarBW, cfg.PropDelay)
		if o.lat == want {
			exact++
		} else if o.lat < want {
			t.Fatalf("observed latency %v below the physical floor %v (size %v, hops %d)",
				o.lat, want, o.size, o.hops)
		}
	}
	// At 1% load the overwhelming majority of probes see an idle path.
	if frac := float64(exact) / float64(len(seen)); frac < 0.9 {
		t.Fatalf("only %.0f%% of %d probes matched the analytic model exactly", 100*frac, len(seen))
	}
}

func TestResultsLinkCounters(t *testing.T) {
	cfg := quickCfg(arch.Simple2VC, 0.3)
	cfg.Measure = 2 * units.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.XbarTransfers == 0 || res.LinkSends == 0 {
		t.Fatalf("switch counters empty: %+v", res)
	}
	// Every crossbar transfer eventually leaves on a link within the
	// window (small slack for in-flight packets at the horizon).
	if res.LinkSends > res.XbarTransfers {
		t.Fatalf("more link sends (%d) than crossbar transfers (%d)", res.LinkSends, res.XbarTransfers)
	}
	if res.XbarTransfers-res.LinkSends > 2000 {
		t.Fatalf("too many packets stuck between crossbar and links: %d vs %d",
			res.XbarTransfers, res.LinkSends)
	}
}

// BenchmarkArchitectures measures one full-load run per architecture, the
// per-run cost entering every experiment sweep, and the only reading of
// the Traditional architecture's cost.
func BenchmarkArchitectures(b *testing.B) {
	for _, a := range arch.All() {
		b.Run(a.Flag(), func(b *testing.B) {
			cfg := SmallConfig()
			cfg.Arch = a
			cfg.Load = 1.0
			cfg.WarmUp = 0
			cfg.Measure = 2 * units.Millisecond
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
