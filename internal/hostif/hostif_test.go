package hostif

import (
	"testing"
	"testing/quick"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/link"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/units"
)

// testSink records packets leaving a host via its injection link.
type testSink struct {
	eng  *sim.Engine
	l    *link.Link
	got  []*packet.Packet
	when []units.Time
}

func (s *testSink) Receive(p *packet.Packet) {
	p.UnpackTTD(s.eng.Now())
	s.got = append(s.got, p)
	s.when = append(s.when, s.eng.Now())
	// Credit the VC the packet actually travelled on: the ingress policer
	// may have demoted it below its class's usual VC.
	s.l.ReturnCredits(p.VC, p.Size)
}

type hostRig struct {
	eng  *sim.Engine
	host *Host
	sink *testSink
	gen  []*packet.Packet
}

func newHostRig(t *testing.T, a arch.Arch, lead units.Time) *hostRig {
	t.Helper()
	eng := sim.New()
	r := &hostRig{eng: eng}
	h := New(Config{
		Eng:          eng,
		Clock:        packet.Clock{Base: eng.Now},
		ID:           0,
		Arch:         a,
		MTU:          2 * units.Kilobyte,
		EligibleLead: lead,
		IDs:          &IDSource{},
		Hooks: Hooks{
			// Snapshot at generation time: the TTD mechanism rewrites
			// p.Deadline at every hop, so the live packet's value changes.
			Generated: func(p *packet.Packet) { cp := *p; r.gen = append(r.gen, &cp) },
		},
	})
	sink := &testSink{eng: eng}
	l := link.New(eng, 1, 10, 8*units.Kilobyte, sink)
	sink.l = l
	h.ConnectOut(l)
	r.host, r.sink = h, sink
	return r
}

func bwFlow(id packet.FlowID, cl packet.Class, bw units.Bandwidth) *Flow {
	return &Flow{ID: id, Class: cl, Src: 0, Dst: 1, Route: []int{0}, Mode: ByBandwidth, BW: bw}
}

func TestSegmentation(t *testing.T) {
	r := newHostRig(t, arch.Simple2VC, 0)
	r.host.AddFlow(bwFlow(1, packet.Control, 1))
	// 5000-byte payload with MTU 2048 (2040 payload per packet): 3 parts.
	r.eng.At(0, func() { r.host.SubmitMessage(1, 5000) })
	r.eng.Run(units.Millisecond)
	if len(r.gen) != 3 {
		t.Fatalf("generated %d packets, want 3", len(r.gen))
	}
	var total units.Size
	for i, p := range r.gen {
		total += p.Size - packet.HeaderSize
		if p.Size > 2*units.Kilobyte {
			t.Fatalf("packet %d exceeds MTU: %v", i, p.Size)
		}
		if p.FrameParts != 3 {
			t.Fatalf("FrameParts = %d, want 3", p.FrameParts)
		}
		if p.Seq != uint64(i) {
			t.Fatalf("seq %d, want %d", p.Seq, i)
		}
	}
	if total != 5000 {
		t.Fatalf("payload bytes = %v, want 5000", total)
	}
	if len(r.sink.got) != 3 {
		t.Fatalf("delivered %d, want 3", len(r.sink.got))
	}
}

func TestVirtualClockDeadlines(t *testing.T) {
	r := newHostRig(t, arch.Simple2VC, 0)
	r.host.AddFlow(bwFlow(1, packet.Multimedia, 0.25)) // 2 Gb/s reserved
	r.eng.At(1000, func() { r.host.SubmitMessage(1, 1000) })
	r.eng.Run(units.Millisecond)
	// One packet of 1008 wire bytes at 0.25 B/cycle: D = 1000 + 4032.
	if len(r.gen) != 1 {
		t.Fatalf("generated %d packets", len(r.gen))
	}
	if r.gen[0].Deadline != 5032 {
		t.Fatalf("deadline = %v, want 5032", r.gen[0].Deadline)
	}
}

func TestVirtualClockAccumulatesAcrossMessages(t *testing.T) {
	// Two back-to-back submissions: the second message's deadline chains
	// from the first (max(D_prev, Tnow) = D_prev), enforcing the average
	// rate even for bursts.
	r := newHostRig(t, arch.Simple2VC, 0)
	r.host.AddFlow(bwFlow(1, packet.Control, 0.5))
	r.eng.At(100, func() {
		r.host.SubmitMessage(1, 492) // 500 wire bytes -> +1000 cycles
		r.host.SubmitMessage(1, 492)
	})
	r.eng.Run(units.Millisecond)
	if r.gen[0].Deadline != 1100 {
		t.Fatalf("first deadline = %v, want 1100", r.gen[0].Deadline)
	}
	if r.gen[1].Deadline != 2100 {
		t.Fatalf("second deadline = %v, want 2100 (chained)", r.gen[1].Deadline)
	}
}

func TestVirtualClockResetsAfterIdle(t *testing.T) {
	// After a long idle period Tnow > D_prev, so the deadline restarts
	// from Tnow.
	r := newHostRig(t, arch.Simple2VC, 0)
	r.host.AddFlow(bwFlow(1, packet.Control, 0.5))
	r.eng.At(100, func() { r.host.SubmitMessage(1, 492) })
	r.eng.At(50_000, func() { r.host.SubmitMessage(1, 492) })
	r.eng.Run(units.Millisecond)
	if r.gen[1].Deadline != 51_000 {
		t.Fatalf("post-idle deadline = %v, want 51000", r.gen[1].Deadline)
	}
}

func TestFrameLatencyDeadlines(t *testing.T) {
	// §3.1's example: a frame split into Parts packets, each advancing
	// the deadline by target/Parts, so the last packet's deadline is
	// submission + target.
	r := newHostRig(t, arch.Simple2VC, 0)
	r.host.AddFlow(&Flow{ID: 1, Class: packet.Multimedia, Src: 0, Dst: 1, Route: []int{0},
		Mode: FrameLatency, Target: 10 * units.Millisecond})
	r.eng.At(0, func() { r.host.SubmitMessage(1, 81600) }) // 40 packets of 2040
	r.eng.Run(20 * units.Millisecond)
	if len(r.gen) != 40 {
		t.Fatalf("generated %d packets, want 40", len(r.gen))
	}
	last := r.gen[39]
	if last.Deadline != 10*units.Millisecond {
		t.Fatalf("last packet deadline = %v, want 10ms", last.Deadline)
	}
	step := r.gen[1].Deadline - r.gen[0].Deadline
	if step != 10*units.Millisecond/40 {
		t.Fatalf("deadline step = %v, want 250us", step)
	}
}

func TestFrameLatencyIndependentOfFrameSize(t *testing.T) {
	// A small and a large frame (after the flow has gone idle in
	// between) both get ~target for their final deadline relative to
	// submission time.
	r := newHostRig(t, arch.Simple2VC, 0)
	r.host.AddFlow(&Flow{ID: 1, Class: packet.Multimedia, Src: 0, Dst: 1, Route: []int{0},
		Mode: FrameLatency, Target: 10 * units.Millisecond})
	r.eng.At(0, func() { r.host.SubmitMessage(1, 2040) }) // 1 packet
	r.eng.At(100*units.Millisecond, func() { r.host.SubmitMessage(1, 102000) })
	r.eng.Run(300 * units.Millisecond)
	if d := r.gen[0].Deadline; d != 10*units.Millisecond {
		t.Fatalf("small frame deadline = %v, want 10ms", d)
	}
	lastBig := r.gen[len(r.gen)-1]
	if d := lastBig.Deadline - 100*units.Millisecond; d != 10*units.Millisecond {
		t.Fatalf("big frame final deadline offset = %v, want 10ms", d)
	}
}

func TestEligibleTimeShaping(t *testing.T) {
	// With a 20us lead and deadlines far in the future, packets must not
	// be injected before deadline - 20us.
	r := newHostRig(t, arch.Advanced2VC, 20*units.Microsecond)
	r.host.AddFlow(&Flow{ID: 1, Class: packet.Multimedia, Src: 0, Dst: 1, Route: []int{0},
		Mode: FrameLatency, Target: units.Millisecond, UseEligible: true})
	r.eng.At(0, func() { r.host.SubmitMessage(1, 2040) }) // deadline = 1ms
	r.eng.Run(10 * units.Millisecond)
	if len(r.sink.got) != 1 {
		t.Fatalf("delivered %d, want 1", len(r.sink.got))
	}
	injected := r.sink.got[0].InjectedAt
	eligible := units.Millisecond - 20*units.Microsecond
	if injected < eligible {
		t.Fatalf("injected at %v before eligible time %v", injected, eligible)
	}
	if injected > eligible+10*units.Microsecond {
		t.Fatalf("injected at %v, long after eligible time %v", injected, eligible)
	}
}

func TestEligibleShapingSmoothsBursts(t *testing.T) {
	// A 10-packet frame due in 1ms: without shaping all inject
	// back-to-back at t~0; with shaping injections spread out by
	// target/Parts.
	r := newHostRig(t, arch.Advanced2VC, 20*units.Microsecond)
	r.host.AddFlow(&Flow{ID: 1, Class: packet.Multimedia, Src: 0, Dst: 1, Route: []int{0},
		Mode: FrameLatency, Target: units.Millisecond, UseEligible: true})
	r.eng.At(0, func() { r.host.SubmitMessage(1, 20400) })
	r.eng.Run(10 * units.Millisecond)
	if len(r.sink.got) != 10 {
		t.Fatalf("delivered %d, want 10", len(r.sink.got))
	}
	// Spacing between consecutive injections should be ~100us (the
	// deadline step), not the 2us serialisation time.
	var gaps []units.Time
	for i := 1; i < len(r.sink.got); i++ {
		gaps = append(gaps, r.sink.got[i].InjectedAt-r.sink.got[i-1].InjectedAt)
	}
	for i, g := range gaps {
		if g < 50*units.Microsecond {
			t.Fatalf("gap %d = %v: burst not smoothed (gaps %v)", i, g, gaps)
		}
	}
}

func TestTraditionalIgnoresEligibleTime(t *testing.T) {
	r := newHostRig(t, arch.Traditional2VC, 20*units.Microsecond)
	r.host.AddFlow(&Flow{ID: 1, Class: packet.Multimedia, Src: 0, Dst: 1, Route: []int{0},
		Mode: FrameLatency, Target: units.Millisecond, UseEligible: true})
	r.eng.At(0, func() { r.host.SubmitMessage(1, 2040) })
	r.eng.Run(10 * units.Millisecond)
	if len(r.sink.got) != 1 {
		t.Fatal("packet not delivered")
	}
	if inj := r.sink.got[0].InjectedAt; inj > 100*units.Microsecond {
		t.Fatalf("Traditional host delayed injection to %v", inj)
	}
}

func TestRegulatedPriorityAtInjection(t *testing.T) {
	// Queue lots of best-effort, then submit control: control must be
	// injected before the queued best-effort backlog.
	r := newHostRig(t, arch.Simple2VC, 0)
	r.host.AddFlow(bwFlow(1, packet.BestEffort, 0.01))
	r.host.AddFlow(bwFlow(2, packet.Control, 1))
	r.eng.At(0, func() {
		r.host.SubmitMessage(1, 20000) // ~10 BE packets
		r.host.SubmitMessage(2, 128)
	})
	r.eng.Run(units.Millisecond)
	// The control packet cannot pre-empt the BE packet already on the
	// wire, but must go next.
	pos := -1
	for i, p := range r.sink.got {
		if p.Class == packet.Control {
			pos = i
		}
	}
	if pos != 1 {
		t.Fatalf("control injected at position %d, want 1 (right after the in-flight packet)", pos)
	}
}

func TestBestEffortDeadlineOrderingAtHost(t *testing.T) {
	// Two BE flows with very different reserved bandwidths: the host's
	// deadline-ordered BE queue must interleave by deadline, giving the
	// higher-bandwidth flow more early slots.
	r := newHostRig(t, arch.Simple2VC, 0)
	r.host.AddFlow(bwFlow(1, packet.BestEffort, 0.5))  // fast
	r.host.AddFlow(bwFlow(2, packet.Background, 0.05)) // slow
	r.eng.At(0, func() {
		// Submit slow first so FIFO order would favour it.
		r.host.SubmitMessage(2, 10200) // 5 packets
		r.host.SubmitMessage(1, 10200)
	})
	r.eng.Run(units.Millisecond)
	if len(r.sink.got) != 10 {
		t.Fatalf("delivered %d, want 10", len(r.sink.got))
	}
	// Among the first five deliveries (excluding the unavoidable
	// head-of-line packet already chosen), the fast flow must dominate.
	fast := 0
	for _, p := range r.sink.got[:5] {
		if p.Class == packet.BestEffort {
			fast++
		}
	}
	if fast < 4 {
		t.Fatalf("fast BE flow got %d of first 5 slots, want >=4", fast)
	}
}

func TestSubmitUnknownFlowPanics(t *testing.T) {
	r := newHostRig(t, arch.Simple2VC, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown flow did not panic")
		}
	}()
	r.host.SubmitMessage(99, 100)
}

func TestAddFlowValidation(t *testing.T) {
	r := newHostRig(t, arch.Simple2VC, 0)
	r.host.AddFlow(bwFlow(1, packet.Control, 1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate flow id did not panic")
			}
		}()
		r.host.AddFlow(bwFlow(1, packet.Control, 1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("foreign src did not panic")
			}
		}()
		f := bwFlow(2, packet.Control, 1)
		f.Src = 5
		r.host.AddFlow(f)
	}()
}

func TestReceiveReturnsCredits(t *testing.T) {
	eng := sim.New()
	h := New(Config{Eng: eng, Clock: packet.Clock{Base: eng.Now}, ID: 1,
		Arch: arch.Simple2VC, MTU: 2 * units.Kilobyte, IDs: &IDSource{}})
	var delivered []*packet.Packet
	h.cfg.Hooks.Delivered = func(p *packet.Packet, _ units.Time) { delivered = append(delivered, p) }
	up := link.New(eng, 1, 10, 1*units.Kilobyte, h)
	h.SetUpstream(up)
	eng.At(0, func() {
		p := &packet.Packet{ID: 1, Class: packet.Control, VC: packet.VCRegulated, Size: 1024}
		p.PackTTD(eng.Now())
		up.Send(p)
	})
	eng.At(2000, func() {
		if up.Credits(packet.VCRegulated) != 1024 {
			t.Errorf("credits not returned: %v", up.Credits(packet.VCRegulated))
		}
	})
	eng.Drain()
	if len(delivered) != 1 || h.Received() != 1 {
		t.Fatal("packet not delivered to application")
	}
}

func TestPendingCount(t *testing.T) {
	r := newHostRig(t, arch.Advanced2VC, 20*units.Microsecond)
	r.host.AddFlow(&Flow{ID: 1, Class: packet.Multimedia, Src: 0, Dst: 1, Route: []int{0},
		Mode: FrameLatency, Target: 10 * units.Millisecond, UseEligible: true})
	r.eng.At(0, func() {
		r.host.SubmitMessage(1, 10000)
		if r.host.Pending() == 0 {
			t.Error("Pending() = 0 right after submit of shaped traffic")
		}
	})
	r.eng.Run(50 * units.Millisecond)
	if r.host.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain", r.host.Pending())
	}
}

func TestTraditionalHostFIFOWithinVC(t *testing.T) {
	// Under the Traditional architecture the NIC keeps plain FIFOs: two
	// best-effort flows drain in submission order even when the second
	// has far earlier deadlines.
	r := newHostRig(t, arch.Traditional2VC, 0)
	r.host.AddFlow(bwFlow(1, packet.BestEffort, 0.001)) // huge deadline steps
	r.host.AddFlow(bwFlow(2, packet.Background, 1))     // tiny deadline steps
	r.eng.At(0, func() {
		r.host.SubmitMessage(1, 4000) // ~2 packets, deadlines far out
		r.host.SubmitMessage(2, 4000) // ~2 packets, deadlines near
	})
	r.eng.Run(units.Millisecond)
	if len(r.sink.got) != 4 {
		t.Fatalf("delivered %d, want 4", len(r.sink.got))
	}
	for i, p := range r.sink.got {
		wantFlow := packet.FlowID(1)
		if i >= 2 {
			wantFlow = 2
		}
		if p.Flow != wantFlow {
			t.Fatalf("delivery %d from flow %d, want %d (FIFO violated)", i, p.Flow, wantFlow)
		}
	}
}

func TestHostFlowAccessor(t *testing.T) {
	r := newHostRig(t, arch.Simple2VC, 0)
	f := bwFlow(7, packet.Control, 1)
	r.host.AddFlow(f)
	if got := r.host.Flow(7); got != f {
		t.Fatal("Flow(7) did not return the registered record")
	}
	if got := r.host.Flow(99); got != nil {
		t.Fatal("Flow(99) returned a record for an unknown id")
	}
	if r.host.ID() != 0 {
		t.Fatalf("ID() = %d", r.host.ID())
	}
}

func TestSubmitNonPositiveSizePanics(t *testing.T) {
	r := newHostRig(t, arch.Simple2VC, 0)
	r.host.AddFlow(bwFlow(1, packet.Control, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size message did not panic")
		}
	}()
	r.host.SubmitMessage(1, 0)
}

func TestDeadlinesStrictlyIncreasePerFlow(t *testing.T) {
	// Property (appendix hypothesis 1): whatever the submission pattern,
	// a flow's packet deadlines strictly increase — the precondition for
	// the take-over queue's no-reorder guarantee.
	prop := func(seed uint64, sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		r := newHostRig(t, arch.Advanced2VC, 20*units.Microsecond)
		r.host.AddFlow(&Flow{ID: 1, Class: packet.Multimedia, Src: 0, Dst: 1,
			Route: []int{0}, Mode: FrameLatency, Target: 3 * units.Millisecond, UseEligible: true})
		r.host.AddFlow(bwFlow(2, packet.Control, 0.7))
		rng := seed
		next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
		at := units.Time(0)
		for _, raw := range sizes {
			at += units.Time(next()%50_000 + 1)
			size := units.Size(raw%30_000) + 1
			flow := packet.FlowID(next()%2 + 1)
			submitAt := at
			r.eng.At(submitAt, func() { r.host.SubmitMessage(flow, size) })
		}
		r.eng.Run(at + 100*units.Millisecond)
		last := map[packet.FlowID]units.Time{}
		for _, p := range r.gen {
			if prev, ok := last[p.Flow]; ok && p.Deadline <= prev {
				return false
			}
			last[p.Flow] = p.Deadline
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// drainSink is a receiver that returns credits at once and keeps nothing.
type drainSink struct {
	l *link.Link
	n int
}

func (s *drainSink) Receive(p *packet.Packet) {
	s.n++
	s.l.ReturnCredits(p.VC, p.Size)
}

func TestSubmitMessageAllocatesOnlyThePacket(t *testing.T) {
	// One MTU message: segmentation, stamping, staging (through the
	// eligibility heap and a wake-up event when shaped), injection, the
	// link's events and the credit return. The packet itself is the only
	// allocation.
	for _, shaped := range []bool{false, true} {
		eng := sim.New()
		mtu := 2 * units.Kilobyte
		h := New(Config{
			Eng: eng, Clock: packet.Clock{Base: eng.Now}, Arch: arch.Advanced2VC,
			MTU: mtu, EligibleLead: 20 * units.Microsecond, IDs: &IDSource{},
		})
		s := &drainSink{}
		s.l = link.New(eng, 1, 20, 8*units.Kilobyte, s)
		h.ConnectOut(s.l)
		f := &Flow{ID: 1, Class: packet.Control, Src: 0, Dst: 1, Route: []int{0}, Mode: ByBandwidth, BW: 1}
		if shaped {
			f.Class, f.Mode, f.Target, f.UseEligible = packet.Multimedia, FrameLatency, units.Millisecond, true
		}
		h.AddFlow(f)
		if n := testing.AllocsPerRun(500, func() {
			h.SubmitMessage(1, mtu-packet.HeaderSize)
			eng.Drain()
		}); n > 1 {
			t.Errorf("shaped=%v: SubmitMessage allocates %v times per MTU message, want <= 1", shaped, n)
		}
		if s.n != 501 {
			t.Fatalf("shaped=%v: delivered %d packets, want 501", shaped, s.n)
		}
	}
}
