package hostif

import (
	"reflect"
	"testing"
	"unsafe"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/link"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/units"
)

// TestFlowFitsItsSizeClass pins the flow record in Go's 128-byte size
// class: a 128-host fabric registers tens of thousands of flows.
func TestFlowFitsItsSizeClass(t *testing.T) {
	if s := unsafe.Sizeof(Flow{}); s > 128 {
		t.Fatalf("Flow is %d bytes, want <= 128 (the next size class is 144)", s)
	}
}

// TestStagedPacketKeepsWhatEmitStamped stages packets behind a busy link,
// then rewrites the flow's route and class as a session revoke does (a
// downgrade to best effort onto a fresh route). Every packet staged before
// the rewrite must still leave with the route, class and VC emit stamped,
// and a control packet with its payload; once all are injected, the side
// tables hold nothing.
func TestStagedPacketKeepsWhatEmitStamped(t *testing.T) {
	r := newHostRig(t, arch.Advanced2VC, 0)
	h := r.host
	oldRoute, newRoute := []int{2, 5}, []int{3, 1, 4}
	f := &Flow{ID: 1, Class: packet.Multimedia, Src: 0, Dst: 1, Route: oldRoute, Mode: ByBandwidth, BW: 0.5}
	h.AddFlow(f)
	h.AddFlow(&Flow{ID: 2, Class: packet.Control, Src: 0, Dst: 1, Route: oldRoute, Mode: ByBandwidth, BW: 1})
	type msg struct{ grant int }
	r.eng.At(0, func() {
		h.SubmitMessage(1, 6000) // three packets: one on the wire, two staged
		h.SubmitCtl(2, 64, msg{7})
		if h.Pending() != 3 {
			t.Fatalf("%d records staged behind the busy link, want 3", h.Pending())
		}
		f.Class, f.Route = packet.BestEffort, newRoute
		h.SubmitMessage(1, 100)
	})
	r.eng.Run(units.Millisecond)
	if len(r.sink.got) != 5 {
		t.Fatalf("injected %d packets, want 5", len(r.sink.got))
	}
	var ctl, before int
	for _, p := range r.sink.got {
		switch {
		case p.Flow == 2:
			ctl++
			if p.Ctl != (msg{7}) || !reflect.DeepEqual(p.Route, oldRoute) {
				t.Errorf("control packet %v carries payload %v and route %v, want %v and %v", p, p.Ctl, p.Route, msg{7}, oldRoute)
			}
		case p.Seq < 3:
			before++
			if p.Class != packet.Multimedia || p.VC != packet.VCRegulated || &p.Route[0] != &oldRoute[0] {
				t.Errorf("packet %v staged before the revoke left as %v on %v with route %v, want Multimedia on the regulated VC with route %v",
					p, p.Class, p.VC, p.Route, oldRoute)
			}
		default:
			if p.Class != packet.BestEffort || p.VC != packet.VCBestEffort || &p.Route[0] != &newRoute[0] {
				t.Errorf("packet %v emitted after the revoke left as %v on %v with route %v", p, p.Class, p.VC, p.Route)
			}
		}
		if p.Ctl != nil && p.Flow != 2 {
			t.Errorf("data packet %v carries a control payload", p)
		}
	}
	if ctl != 1 || before != 3 {
		t.Fatalf("saw %d control packets and %d packets staged before the revoke, want 1 and 3", ctl, before)
	}
	if n := len(h.routes.slots) - len(h.routes.free); n != 0 {
		t.Errorf("route table holds %d slots after every record left", n)
	}
	if len(h.ctl) != 0 {
		t.Errorf("control side table holds %d payloads after every record left", len(h.ctl))
	}
}

// TestWaitingRecordCycleAllocatesNothing pins the record phase: each
// cycle submits bursts the link cannot drain at once, so packets wait as
// records behind it, and runs until every packet is delivered. With the
// packet pool and the record free list warm, a cycle allocates nothing.
func TestWaitingRecordCycleAllocatesNothing(t *testing.T) {
	eng := sim.New()
	pool, records := new(packet.Pool[packet.Packet]), new(packet.Pool[packet.Staged])
	newHost := func(id int) *Host {
		return New(Config{
			Eng: eng, Clock: packet.Clock{Base: eng.Now}, ID: id, Arch: arch.Advanced2VC,
			MTU: 2 * units.Kilobyte, EligibleLead: 20 * units.Microsecond,
			IDs: NewIDSource(uint64(id+1) << 40), Pool: pool, Records: records,
		})
	}
	src, dst := newHost(0), newHost(1)
	l := link.New(eng, 1, 10, 8*units.Kilobyte, dst)
	src.ConnectOut(l)
	dst.SetUpstream(l)
	src.AddFlow(bwFlow(1, packet.BestEffort, 0.2))
	src.AddFlow(bwFlow(2, packet.Control, 1))
	src.AddFlow(&Flow{ID: 3, Class: packet.Multimedia, Src: 0, Dst: 1, Route: []int{0},
		Mode: FrameLatency, Target: 60 * units.Microsecond, UseEligible: true})
	waited := 0
	cycle := func() {
		src.SubmitMessage(1, 8000) // four packets on the best-effort VC
		src.SubmitMessage(3, 6000) // three shaped multimedia packets
		src.SubmitMessage(2, 100)
		waited = max(waited, src.Pending())
		eng.Run(eng.Now() + 100*units.Microsecond)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(1000, cycle); a != 0 {
		t.Fatalf("a cycle whose packets wait as records allocates %v times, want 0", a)
	}
	if waited < 4 {
		t.Fatalf("at most %d records waited at once; the bursts do not back up", waited)
	}
	if src.Pending() != 0 || dst.Received() != 8*1101 {
		t.Fatalf("%d records still staged, %d of %d packets delivered", src.Pending(), dst.Received(), 8*1101)
	}
	if taken, returned := records.Counts(); taken != returned {
		t.Fatalf("record free list handed out %d and took back %d", taken, returned)
	}
	if taken, returned := pool.Counts(); taken != returned {
		t.Fatalf("packet pool handed out %d and took back %d", taken, returned)
	}
}
