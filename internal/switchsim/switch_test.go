package switchsim

import (
	"testing"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/link"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/units"
)

// rig wires one switch with an injector link per input port and a sink per
// output port, so tests can drive the switch directly.
type rig struct {
	eng   *sim.Engine
	sw    *Switch
	up    []*link.Link // test -> switch input
	down  []*link.Link // switch output -> sink
	sinks []*sinkNode
}

type sinkNode struct {
	eng  *sim.Engine
	up   *link.Link
	got  []*packet.Packet
	when []units.Time
}

// Receive drains instantly and returns credits, like an endpoint NIC.
// Credits go back to the VC the packet occupied (p.VC, not the 2-VC class
// mapping: under 4-VC architectures they differ, and returning to the
// wrong VC is a credit leak).
func (sn *sinkNode) Receive(p *packet.Packet) {
	p.UnpackTTD(sn.eng.Now())
	sn.got = append(sn.got, p)
	sn.when = append(sn.when, sn.eng.Now())
	sn.up.ReturnCredits(p.VC, p.Size)
}

func newRig(t *testing.T, a arch.Arch, radix int, bufPerVC units.Size) *rig {
	return newRigConfig(t, Config{Radix: radix, Arch: a, BufPerVC: bufPerVC, TrackOrderErrors: true})
}

// newRigConfig wires a rig around a switch built from cfg, filling in its
// engine and clock.
func newRigConfig(t *testing.T, cfg Config) *rig {
	t.Helper()
	eng := sim.New()
	cfg.Eng, cfg.Clock = eng, packet.Clock{Base: eng.Now}
	sw := New(cfg)
	radix, bufPerVC := cfg.Radix, cfg.BufPerVC
	r := &rig{eng: eng, sw: sw}
	for p := 0; p < radix; p++ {
		up := link.New(eng, 1, 5, bufPerVC, sw.InputReceiver(p))
		sw.ConnectUpstream(p, up)
		r.up = append(r.up, up)

		sn := &sinkNode{eng: eng}
		down := link.New(eng, 1, 5, bufPerVC, sn)
		sn.up = down
		sw.ConnectDownstream(p, down)
		r.down = append(r.down, down)
		r.sinks = append(r.sinks, sn)
	}
	return r
}

var testID uint64

// inject stamps TTD as a host would and sends on input port in at time at.
func (r *rig) inject(at units.Time, in int, p *packet.Packet) {
	r.eng.At(at, func() {
		p.PackTTD(r.eng.Now())
		if !r.up[in].CanSend(p) {
			// Queue behind the link by retrying on readiness; tests keep
			// injection rates low enough that this is rare.
			prev := r.up[in].OnReady
			r.up[in].OnReady = func() {
				if prev != nil {
					prev()
				}
				if p.Hop == 0 && r.up[in].CanSend(p) {
					r.up[in].Send(p)
				}
			}
			return
		}
		r.up[in].Send(p)
	})
}

func mkpkt(cl packet.Class, dl units.Time, size units.Size, outPort int) *packet.Packet {
	testID++
	return &packet.Packet{ID: testID, Class: cl, VC: packet.VCOf(cl), Deadline: dl, Size: size, Route: []int{outPort}}
}

func TestForwardsToRoutedPort(t *testing.T) {
	r := newRig(t, arch.Simple2VC, 4, 8*units.Kilobyte)
	r.inject(0, 0, mkpkt(packet.Control, 1000, 256, 2))
	r.eng.Run(units.Millisecond)
	for port, sn := range r.sinks {
		want := 0
		if port == 2 {
			want = 1
		}
		if len(sn.got) != want {
			t.Fatalf("port %d received %d packets, want %d", port, len(sn.got), want)
		}
	}
}

func TestDeliveryLatencyComponents(t *testing.T) {
	// One 256-byte packet, unloaded switch: 256 (up serialisation) + 5
	// (prop) + 256 (crossbar) + 256 (down serialisation) + 5 (prop) = 778.
	r := newRig(t, arch.Simple2VC, 4, 8*units.Kilobyte)
	r.inject(0, 0, mkpkt(packet.Control, 1000, 256, 1))
	r.eng.Run(units.Millisecond)
	if len(r.sinks[1].got) != 1 {
		t.Fatal("packet not delivered")
	}
	if got := r.sinks[1].when[0]; got != 778 {
		t.Fatalf("delivery at %v, want 778", got)
	}
}

func TestAllArchitecturesDeliver(t *testing.T) {
	for _, a := range arch.All() {
		r := newRig(t, a, 4, 8*units.Kilobyte)
		for i := 0; i < 4; i++ {
			for j := 0; j < 8; j++ {
				cl := packet.Class(j % packet.NumClasses)
				r.inject(units.Time(j)*300, i, mkpkt(cl, units.Time(1000+j*100), 256, (i+1+j)%4))
			}
		}
		r.eng.Run(10 * units.Millisecond)
		total := 0
		for _, sn := range r.sinks {
			total += len(sn.got)
		}
		if total != 32 {
			t.Errorf("%v: delivered %d packets, want 32", a, total)
		}
		if q := r.sw.Queued(); q != 0 {
			t.Errorf("%v: %d packets stuck in switch", a, q)
		}
	}
}

func TestEDFOrderAcrossInputs(t *testing.T) {
	// Two inputs contend for output 3. Input 1's packet has the earlier
	// deadline; after the first in-flight transfer, deadline order must
	// decide. Inject three at each input back to back.
	r := newRig(t, arch.Ideal, 4, 8*units.Kilobyte)
	// Stagger the injection so all arrive before the output drains.
	for j := 0; j < 3; j++ {
		r.inject(units.Time(j)*300, 0, mkpkt(packet.Control, units.Time(9000+j*10), 256, 3))
		r.inject(units.Time(j)*300+10, 1, mkpkt(packet.Control, units.Time(1000+j*10), 256, 3))
	}
	r.eng.Run(10 * units.Millisecond)
	sn := r.sinks[3]
	if len(sn.got) != 6 {
		t.Fatalf("delivered %d, want 6", len(sn.got))
	}
	// The low-deadline flow (1000-range) must not finish last: count how
	// many high-deadline packets precede the final low-deadline one.
	lastLow := -1
	for i, p := range sn.got {
		if p.Deadline < 5000+p.Deadline%1000 && p.Deadline < 5000 {
			lastLow = i
		}
	}
	if lastLow == len(sn.got)-1 {
		t.Fatalf("EDF switch let all high-deadline packets pass before low-deadline ones: %v",
			deadlines(sn.got))
	}
}

func deadlines(ps []*packet.Packet) []units.Time {
	var ds []units.Time
	for _, p := range ps {
		ds = append(ds, p.Deadline)
	}
	return ds
}

func TestRegulatedPriorityOverBestEffort(t *testing.T) {
	// Saturate output 0 with best-effort from input 0, then inject
	// regulated control from input 1: the control packet must jump ahead
	// of queued best-effort packets.
	r := newRig(t, arch.Simple2VC, 4, 64*units.Kilobyte)
	for j := 0; j < 20; j++ {
		r.inject(units.Time(j)*2100, 0, mkpkt(packet.BestEffort, units.Time(1+j), 2048, 0))
	}
	ctrl := mkpkt(packet.Control, units.Infinity-1, 256, 0) // even with the worst deadline...
	r.inject(10_000, 1, ctrl)
	r.eng.Run(100 * units.Millisecond)
	sn := r.sinks[0]
	pos := -1
	for i, p := range sn.got {
		if p.ID == ctrl.ID {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatal("control packet not delivered")
	}
	if pos > 8 {
		t.Fatalf("regulated packet delivered at position %d behind best-effort backlog", pos)
	}
}

func TestTraditionalSharesByTable(t *testing.T) {
	// Saturated output: with the 3:1 default table, regulated gets ~3x
	// the best-effort packet rate for equal-size packets.
	r := newRig(t, arch.Traditional2VC, 2, 16*units.Kilobyte)
	for j := 0; j < 60; j++ {
		r.inject(units.Time(j)*1100, 0, mkpkt(packet.Multimedia, 0, 1024, 1))
		r.inject(units.Time(j)*1100+5, 1, mkpkt(packet.BestEffort, 0, 1024, 1))
	}
	r.eng.Run(40_000) // stop mid-contention
	sn := r.sinks[1]
	reg, be := 0, 0
	for _, p := range sn.got {
		if p.Class.Regulated() {
			reg++
		} else {
			be++
		}
	}
	if reg == 0 || be == 0 {
		t.Fatalf("one class starved: reg=%d be=%d", reg, be)
	}
	ratio := float64(reg) / float64(be)
	if ratio < 2.0 || ratio > 4.5 {
		t.Fatalf("table sharing ratio = %.2f (reg=%d be=%d), want ~3", ratio, reg, be)
	}
}

func TestCreditBackpressureStallsUpstream(t *testing.T) {
	// A tiny downstream buffer (one packet's worth of credits on the
	// sink link) must throttle, not crash, and deliver everything.
	eng := sim.New()
	sw := New(Config{Eng: eng, Clock: packet.Clock{Base: eng.Now}, Radix: 2,
		Arch: arch.Advanced2VC, BufPerVC: 2 * units.Kilobyte})
	sn := &sinkNode{eng: eng}
	down := link.New(eng, 1, 5, 2*units.Kilobyte, sn)
	sn.up = down
	sw.ConnectDownstream(1, down)
	up := link.New(eng, 1, 5, 2*units.Kilobyte, sw.InputReceiver(0))
	sw.ConnectUpstream(0, up)

	var send func(n int)
	send = func(n int) {
		if n == 0 {
			return
		}
		testID++
		p := &packet.Packet{ID: testID, Class: packet.Control, VC: packet.VCRegulated, Deadline: units.Time(n), Size: 1024, Route: []int{1}}
		if up.CanSend(p) {
			p.PackTTD(eng.Now())
			up.Send(p)
			n--
		}
		eng.After(100, func() { send(n) })
	}
	eng.At(0, func() { send(10) })
	eng.Run(10 * units.Millisecond)
	if len(sn.got) != 10 {
		t.Fatalf("delivered %d, want 10", len(sn.got))
	}
}

func TestPoolOverflowPanics(t *testing.T) {
	// Bypassing flow control (writing straight into the receiver) must
	// trip the pool assertion.
	eng := sim.New()
	sw := New(Config{Eng: eng, Clock: packet.Clock{Base: eng.Now}, Radix: 2,
		Arch: arch.Simple2VC, BufPerVC: 1 * units.Kilobyte})
	recv := sw.InputReceiver(0)
	defer func() {
		if recover() == nil {
			t.Fatal("pool overflow did not panic")
		}
	}()
	eng.At(0, func() {
		for i := 0; i < 3; i++ {
			testID++
			recv.Receive(&packet.Packet{ID: testID, Class: packet.Control, VC: packet.VCRegulated, Size: 512, Route: []int{1}})
		}
	})
	eng.Drain()
}

func TestInvalidRoutePanics(t *testing.T) {
	eng := sim.New()
	sw := New(Config{Eng: eng, Clock: packet.Clock{Base: eng.Now}, Radix: 2,
		Arch: arch.Simple2VC, BufPerVC: units.Kilobyte})
	defer func() {
		if recover() == nil {
			t.Fatal("invalid route did not panic")
		}
	}()
	eng.At(0, func() {
		testID++
		sw.InputReceiver(0).Receive(&packet.Packet{ID: testID, Class: packet.Control, VC: packet.VCRegulated, Size: 64, Route: []int{7}})
	})
	eng.Drain()
}

func TestStatsCounters(t *testing.T) {
	r := newRig(t, arch.Advanced2VC, 4, 8*units.Kilobyte)
	for j := 0; j < 10; j++ {
		r.inject(units.Time(j)*300, 0, mkpkt(packet.Control, units.Time(1000+j), 256, 1))
	}
	r.eng.Run(10 * units.Millisecond)
	st := r.sw.Stats()
	if st.XbarTransfers != 10 || st.LinkSends != 10 {
		t.Fatalf("stats = %+v, want 10 transfers and sends", st)
	}
}

func TestSwitchPreservesFlowOrderUnderAdvanced(t *testing.T) {
	// Packets of one flow with increasing deadlines must arrive in
	// sequence order through the take-over architecture even while a
	// competing input floods the same output.
	r := newRig(t, arch.Advanced2VC, 4, 32*units.Kilobyte)
	for j := 0; j < 25; j++ {
		p := mkpkt(packet.Control, units.Time(1000+j*50), 512, 2)
		p.Flow = 42
		p.Seq = uint64(j)
		r.inject(units.Time(j)*600, 0, p)
		// Interfering traffic, occasionally with much earlier deadlines.
		q := mkpkt(packet.Control, units.Time(10+j*997%3000), 512, 2)
		q.Flow = 7
		r.inject(units.Time(j)*600+37, 1, q)
	}
	r.eng.Run(100 * units.Millisecond)
	var prev int64 = -1
	for _, p := range r.sinks[2].got {
		if p.Flow != 42 {
			continue
		}
		if int64(p.Seq) <= prev {
			t.Fatalf("flow 42 reordered: seq %d after %d", p.Seq, prev)
		}
		prev = int64(p.Seq)
	}
	if prev != 24 {
		t.Fatalf("flow 42 lost packets: last seq %d, want 24", prev)
	}
}

func TestVOQAvoidsHeadOfLineBlocking(t *testing.T) {
	// Input 0 sends a long backlog to output 1 (whose sink withholds
	// credits) and a single packet to output 2. With virtual output
	// queuing the blocked output must not delay the packet for the idle
	// output.
	eng := sim.New()
	sw := New(Config{Eng: eng, Clock: packet.Clock{Base: eng.Now}, Radix: 3,
		Arch: arch.Simple2VC, BufPerVC: 64 * units.Kilobyte})

	blocked := &sinkNode{eng: eng}
	blockedLink := link.New(eng, 1, 5, 2*units.Kilobyte, blocked) // tiny credits
	blocked.up = blockedLink
	sw.ConnectDownstream(1, blockedLink)

	free := &sinkNode{eng: eng}
	freeLink := link.New(eng, 1, 5, 64*units.Kilobyte, free)
	free.up = freeLink
	sw.ConnectDownstream(2, freeLink)

	up := link.New(eng, 1, 5, 64*units.Kilobyte, sw.InputReceiver(0))
	sw.ConnectUpstream(0, up)

	// Backlog to the blocked output, then one packet to the free output.
	var queue []*packet.Packet
	for j := 0; j < 8; j++ {
		queue = append(queue, mkpkt(packet.Control, units.Time(100+j), 1500, 1))
	}
	probe := mkpkt(packet.Control, 5000, 256, 2)
	queue = append(queue, probe)
	i := 0
	var feed func()
	feed = func() {
		if i < len(queue) && up.CanSend(queue[i]) {
			p := queue[i]
			p.PackTTD(eng.Now())
			up.Send(p)
			i++
		}
		if i < len(queue) {
			eng.After(100, feed)
		}
	}
	eng.At(0, feed)
	eng.Run(5 * units.Millisecond)

	if len(free.got) != 1 {
		t.Fatalf("probe packet not delivered past blocked output (%d delivered)", len(free.got))
	}
	// The probe must arrive long before the blocked backlog would have
	// drained through the throttled 2KB-credit link.
	if free.when[0] > 200*units.Microsecond {
		t.Fatalf("probe delayed to %v: head-of-line blocking", free.when[0])
	}
}

func TestTraditional4VCPerClassVCs(t *testing.T) {
	// Each class travels in its own VC: saturating the Background VC
	// must not consume Control VC credits or delay Control packets.
	r := newRig(t, arch.Traditional4VC, 2, 8*units.Kilobyte)
	for j := 0; j < 10; j++ {
		p := mkpkt(packet.Background, 0, 2048, 1)
		p.VC = packet.VC(packet.Background) // 4-VC mapping
		r.inject(units.Time(j)*2100, 0, p)
	}
	ctrl := mkpkt(packet.Control, 0, 256, 1)
	ctrl.VC = packet.VC(packet.Control)
	r.inject(8_000, 1, ctrl)
	r.eng.Run(100 * units.Millisecond)
	sn := r.sinks[1]
	pos := -1
	for i, p := range sn.got {
		if p.ID == ctrl.ID {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatal("control packet not delivered")
	}
	// With its own weighted VC, control must not wait behind the whole
	// background backlog.
	if pos > 5 {
		t.Fatalf("control delivered at position %d behind background backlog", pos)
	}
}

// countCredits is an upstream that only totals the credits returned to it.
type countCredits struct{ bytes units.Size }

func (c *countCredits) ReturnCredits(_ packet.VC, size units.Size) { c.bytes += size }

// drainSink is an endpoint that drains at line rate and keeps nothing.
type drainSink struct {
	up *link.Link
	n  int
}

func (d *drainSink) Receive(p *packet.Packet) {
	d.n++
	d.up.ReturnCredits(p.VC, p.Size)
}

func TestForwardAllocatesNothing(t *testing.T) {
	// One MTU packet through input VOQ, crossbar, output buffer,
	// downstream link and credit return, under every architecture: the
	// crossbar event is typed and the arbitration scratch lives on the
	// output port, so a warm switch forwards without allocating.
	for _, a := range arch.All() {
		t.Run(a.Flag(), func(t *testing.T) {
			const radix = 8
			eng := sim.New()
			sw := New(Config{
				Eng: eng, Clock: packet.Clock{Base: eng.Now}, Radix: radix,
				Arch: a, BufPerVC: 8 * units.Kilobyte,
			})
			up := &countCredits{}
			var sinks []*drainSink
			for p := 0; p < radix; p++ {
				sw.ConnectUpstream(p, up)
				d := &drainSink{}
				d.up = link.New(eng, 1, 20, 8*units.Kilobyte, d)
				sw.ConnectDownstream(p, d.up)
				sinks = append(sinks, d)
			}
			in := sw.InputReceiver(0)
			p := &packet.Packet{Class: packet.Control, VC: a.VCFor(packet.Control), Size: 2 * units.Kilobyte, Route: []int{3}}
			if n := testing.AllocsPerRun(500, func() {
				p.ID++
				p.Hop, p.Deadline = 0, eng.Now()+units.Millisecond
				p.PackTTD(eng.Now())
				in.Receive(p)
				eng.Drain()
			}); n != 0 {
				t.Errorf("forward allocates %v times per packet, want 0", n)
			}
			if sinks[3].n != 501 || up.bytes != 501*p.Size {
				t.Fatalf("delivered %d, credits returned %v; want 501 packets and their bytes", sinks[3].n, up.bytes)
			}
		})
	}
}
