package hostif

import (
	"reflect"
	"testing"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/link"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/units"
	"deadlineqos/internal/xrand"
)

// relKey identifies a tracked packet in the map reference.
type relKey struct {
	flow packet.FlowID
	seq  uint64
}

// mapTracker is the sender-side tracker as one map keyed by (flow, seq),
// the layout the per-flow windows replaced, and the reference they must
// match. It runs its own Host's retransmission code and receives its own
// timers.
type mapTracker struct {
	h       *Host
	entries map[relKey]*relEntry
}

func (m *mapTracker) track(p *packet.Packet) {
	key := relKey{p.Flow, p.Seq}
	e := m.entries[key]
	if e == nil {
		e = &relEntry{}
		m.entries[key] = e
	}
	e.pkt = *p
	e.queued = false
	rto := m.h.cfg.Reliability.rto(e.retries)
	e.timer = m.h.cfg.Eng.Post(m.h.cfg.Eng.Now()+rto, 0, sim.Payload{H: m, Kind: sim.KindRetx, A: uint64(p.Flow), B: p.Seq})
}

// Fire is the retransmission timeout of flow a's seq b.
func (m *mapTracker) Fire(_ sim.Kind, _ *packet.Packet, a, b uint64) {
	e := m.entries[relKey{packet.FlowID(a), b}]
	if e == nil || e.queued {
		return
	}
	m.h.relCnt.Timeouts++
	m.h.retransmit(m.h.flows[packet.FlowID(a)], e)
}

func (m *mapTracker) report(flow packet.FlowID, seq uint64, ok bool) {
	key := relKey{flow, seq}
	e := m.entries[key]
	if e == nil {
		return
	}
	if ok {
		if e.timer.Pending() {
			m.h.cfg.Eng.Cancel(e.timer)
		}
		delete(m.entries, key)
		m.h.relCnt.Acked++
		return
	}
	m.h.relCnt.Naks++
	if !e.queued {
		if e.timer.Pending() {
			m.h.cfg.Eng.Cancel(e.timer)
		}
		m.h.retransmit(m.h.flows[flow], e)
	}
}

// senderFlows are driveSender's flows: a regulated ByBandwidth flow, a
// FrameLatency flow and a best-effort flow, so retransmissions re-stamp
// both ways and demote from either regulated class.
func senderFlows() []*Flow {
	return []*Flow{
		{ID: 1, Class: packet.Control, Src: 0, Dst: 1, Route: []int{0}, Mode: ByBandwidth, BW: 0.5},
		{ID: 2, Class: packet.Multimedia, Src: 0, Dst: 1, Route: []int{0}, Mode: FrameLatency, Target: 5000},
		{ID: 3, Class: packet.BestEffort, Src: 0, Dst: 1, Route: []int{0}, Mode: ByBandwidth, BW: 0.1},
	}
}

// newSenderHost returns a reliable host with no link: tryInject does
// nothing, so retransmit copies stay in the ready queues until
// driveSender injects them.
func newSenderHost() *Host {
	eng := sim.New()
	h := New(Config{
		Eng: eng, Clock: packet.Clock{Base: eng.Now}, Arch: arch.Advanced2VC,
		MTU: 2 * units.Kilobyte, IDs: &IDSource{},
		Reliability: Reliability{Enabled: true, Timeout: 2000, MaxTimeout: 9000, DemoteAfter: 2},
	})
	for _, f := range senderFlows() {
		h.AddFlow(f)
	}
	return h
}

// driveSender runs one stream of sender events through a host tracking
// with the per-flow windows and a host tracking with the map reference.
// Each byte is one event: a first transmission made ready, a ready one
// injected (not necessarily in seq order), a queued retransmit copy
// injected, an ack or a NAK of a recently injected seq (often stale), or
// time advanced so retransmission timers fire. After every event the
// hosts must agree on Outstanding, RelCounters, every flow's virtual
// clock and queue lengths, and every tracked entry, and each window must
// start at its flow's oldest tracked seq; every copy injected and the
// copies left queued at the end must be equal.
func driveSender(t *testing.T, ops []byte) {
	t.Helper()
	win := newSenderHost()
	ref := &mapTracker{h: newSenderHost(), entries: make(map[relKey]*relEntry)}
	flows := senderFlows()
	var ids IDSource
	var ready, injected [3][]uint64 // per flow: seqs not yet sent; seqs sent
	var next [3]uint64
	now := func() units.Time { return win.cfg.Eng.Now() }
	takeCopy := func(i int, vc int) {
		w, r := win.ready[vc].Pop(), ref.h.ready[vc].Pop()
		if (w == nil) != (r == nil) {
			t.Fatalf("op %d: queued copy %v, reference %v", i, w, r)
		}
		if w != nil {
			var wp, rp packet.Packet
			win.unstage(w, &wp)
			ref.h.unstage(r, &rp)
			if !reflect.DeepEqual(wp, rp) {
				t.Fatalf("op %d: queued copy %+v, reference %+v", i, wp, rp)
			}
			win.trackInjected(&wp)
			ref.track(&rp)
			fi := int(wp.Flow) - 1
			injected[fi] = append(injected[fi], wp.Seq)
		}
	}
	for i, b := range ops {
		op, arg := b%6, int(b/6)
		fi := arg % 3
		f := flows[fi]
		switch op {
		case 0: // the application emits the flow's next seq
			ready[fi] = append(ready[fi], next[fi])
			next[fi]++
		case 1: // a ready first transmission enters the network
			if len(ready[fi]) == 0 {
				continue
			}
			k := (arg / 3) % len(ready[fi])
			seq := ready[fi][k]
			ready[fi] = append(ready[fi][:k], ready[fi][k+1:]...)
			size := units.Size(100 + 37*arg)
			p := &packet.Packet{
				ID: ids.NextPacket(), Flow: f.ID, Class: f.Class, VC: win.cfg.Arch.VCFor(f.Class),
				Src: 0, Dst: 1, Size: size, Seq: seq, Route: f.Route, FrameParts: 1,
				Deadline: now() + units.Time(size)*4, InjectedAt: now(),
			}
			win.trackInjected(p)
			ref.track(p)
			injected[fi] = append(injected[fi], seq)
		case 2: // a queued retransmit copy enters the network
			takeCopy(i, arg%packet.NumVCs)
		case 3, 4: // the destination acks or NAKs a recent seq
			if len(injected[fi]) == 0 {
				continue
			}
			seq := injected[fi][len(injected[fi])-1-(arg/3)%min(len(injected[fi]), 12)]
			win.handleAck(f.ID, seq, op == 3)
			ref.report(f.ID, seq, op == 3)
		case 5: // time passes; due retransmission timers fire
			until := now() + units.Time(arg+1)*150
			win.cfg.Eng.Run(until)
			ref.h.cfg.Eng.Run(until)
		}
		if got, want := win.Outstanding(), len(ref.entries); got != want {
			t.Fatalf("op %d: Outstanding %d, reference %d", i, got, want)
		}
		if got, want := win.RelCounters(), ref.h.RelCounters(); got != want {
			t.Fatalf("op %d: counters %+v, reference %+v", i, got, want)
		}
		for vc := range win.ready {
			if win.ready[vc].Len() != ref.h.ready[vc].Len() {
				t.Fatalf("op %d: VC %d queues %d copies, reference %d", i, vc, win.ready[vc].Len(), ref.h.ready[vc].Len())
			}
		}
		tracked := 0
		oldest := map[packet.FlowID]uint64{}
		for key := range ref.entries {
			if s, ok := oldest[key.flow]; !ok || key.seq < s {
				oldest[key.flow] = key.seq
			}
		}
		for _, f := range win.flows {
			if f.lastDeadline != ref.h.flows[f.ID].lastDeadline {
				t.Fatalf("op %d: flow %d virtual clock %v, reference %v", i, f.ID, f.lastDeadline, ref.h.flows[f.ID].lastDeadline)
			}
			// The window starts at the flow's oldest tracked seq, or is
			// empty.
			if s, ok := oldest[f.ID]; ok && f.rel.base != s || !ok && f.rel.base != f.rel.end {
				t.Fatalf("op %d: flow %d window [%d, %d), oldest tracked seq %d (tracking %v)", i, f.ID, f.rel.base, f.rel.end, s, ok)
			}
			for s := f.rel.base; s < f.rel.end; s++ {
				if f.rel.get(s) != nil {
					tracked++
				}
			}
		}
		if tracked != len(ref.entries) {
			t.Fatalf("op %d: windows hold %d entries, reference %d", i, tracked, len(ref.entries))
		}
		for key, r := range ref.entries {
			w := win.flows[key.flow].rel.get(key.seq)
			if w == nil {
				t.Fatalf("op %d: flow %d seq %d untracked", i, key.flow, key.seq)
			}
			// The snapshots came from equal packets (first transmissions
			// are shared, copies compared as they leave the queues), so
			// the fields retransmit rewrites identify them.
			if w.retries != r.retries || w.demoted != r.demoted || w.queued != r.queued ||
				w.timer.Pending() != r.timer.Pending() ||
				w.pkt.ID != r.pkt.ID || w.pkt.Deadline != r.pkt.Deadline || w.pkt.VC != r.pkt.VC {
				t.Fatalf("op %d: flow %d seq %d entry %+v, reference %+v", i, key.flow, key.seq, *w, *r)
			}
		}
	}
	for vc := range win.ready {
		for win.ready[vc].Len() > 0 {
			takeCopy(len(ops), vc)
		}
	}
}

// TestSenderWindowMatchesMap replays random sender event streams, biased
// towards injecting and reporting, through driveSender.
func TestSenderWindowMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rng := xrand.New(seed)
		ops := make([]byte, 1500)
		for i := range ops {
			// Weights: emit 3, inject 4, inject a copy 2, ack 3, NAK 1,
			// advance time 1.
			op := []byte{0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 3, 3, 4, 5}[rng.Intn(14)]
			ops[i] = op + 6*byte(rng.Intn(42))
		}
		driveSender(t, ops)
	}
}

// FuzzSenderWindow drives driveSender from arbitrary event streams.
func FuzzSenderWindow(f *testing.F) {
	f.Add([]byte{0, 0, 0, 7, 1, 5, 4, 2, 3})
	f.Add([]byte{0, 6, 12, 7, 13, 1, 10, 22, 5, 41, 2, 8, 15, 3, 249, 2, 8, 3})
	f.Add([]byte{0, 0, 0, 0, 19, 7, 1, 9, 15, 4, 251, 251, 2, 8, 14, 251, 2, 3, 9, 15})
	f.Fuzz(func(t *testing.T, ops []byte) { driveSender(t, ops) })
}

// creditSink lands packets and returns their credits, keeping nothing.
type creditSink struct{ l *link.Link }

func (s *creditSink) Receive(p *packet.Packet) { s.l.ReturnCredits(p.VC, p.Size) }

// TestReliableCycleAllocatesOnlyThePacket pins the recovery layer's
// allocation cost: on a warm host with reliability on, a submit → inject
// → ack cycle allocates the packet itself and nothing else.
func TestReliableCycleAllocatesOnlyThePacket(t *testing.T) {
	eng := sim.New()
	h := New(Config{
		Eng: eng, Clock: packet.Clock{Base: eng.Now}, Arch: arch.Advanced2VC,
		MTU: 2 * units.Kilobyte, IDs: &IDSource{}, Reliability: Reliability{Enabled: true},
	})
	sink := &creditSink{}
	sink.l = link.New(eng, 1, 10, 8*units.Kilobyte, sink)
	h.ConnectOut(sink.l)
	h.AddFlow(bwFlow(1, packet.Control, 1))
	f := h.Flow(1)
	cycle := func() {
		h.SubmitMessage(1, 100)
		eng.Run(eng.Now() + 1000)
		h.handleAck(1, f.seq-1, true)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(1000, cycle); a > 1 {
		t.Fatalf("a reliable submit-inject-ack cycle allocates %v times, want at most 1 (the packet)", a)
	}
	if h.Outstanding() != 0 || h.RelCounters().Acked != f.seq {
		t.Fatalf("outstanding %d, acked %d of %d", h.Outstanding(), h.RelCounters().Acked, f.seq)
	}
}

// TestPooledDeliveryCycleAllocatesNothing pins packet recycling: two
// hosts share one pool, and on a warm pair a submit → inject → deliver
// cycle allocates nothing, because the receiver returns each delivered
// packet for the sender's next emit.
func TestPooledDeliveryCycleAllocatesNothing(t *testing.T) {
	eng := sim.New()
	pool := new(packet.Pool[packet.Packet])
	newHost := func(id int) *Host {
		return New(Config{
			Eng: eng, Clock: packet.Clock{Base: eng.Now}, ID: id, Arch: arch.Advanced2VC,
			MTU: 2 * units.Kilobyte, IDs: NewIDSource(uint64(id+1) << 40), Pool: pool,
		})
	}
	src, dst := newHost(0), newHost(1)
	l := link.New(eng, 1, 10, 8*units.Kilobyte, dst)
	src.ConnectOut(l)
	dst.SetUpstream(l)
	src.AddFlow(bwFlow(1, packet.Control, 1))
	cycle := func() {
		src.SubmitMessage(1, 100)
		eng.Run(eng.Now() + 1000)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(1000, cycle); a != 0 {
		t.Fatalf("a pooled submit-inject-deliver cycle allocates %v times, want 0", a)
	}
	if taken, returned := pool.Counts(); dst.Received() != 1101 || taken != returned {
		t.Fatalf("delivered %d of 1101; pool taken %d, returned %d", dst.Received(), taken, returned)
	}
}
