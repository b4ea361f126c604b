package link

import (
	"math"
	"testing"

	"deadlineqos/internal/packet"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/units"
	"deadlineqos/internal/xrand"
)

type sink struct {
	got   []*packet.Packet
	times []units.Time
	eng   *sim.Engine
}

func (s *sink) Receive(p *packet.Packet) {
	s.got = append(s.got, p)
	s.times = append(s.times, s.eng.Now())
}

func pkt(id uint64, cl packet.Class, size units.Size) *packet.Packet {
	return &packet.Packet{ID: id, Class: cl, VC: packet.VCOf(cl), Size: size}
}

func TestSendTiming(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	l := New(eng, 1, 20, 8*units.Kilobyte, s) // 1 B/cycle, 20-cycle prop
	eng.At(100, func() { l.Send(pkt(1, packet.Control, 256)) })
	eng.Drain()
	if len(s.got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(s.got))
	}
	// 100 (start) + 256 (serialisation) + 20 (propagation) = 376.
	if s.times[0] != 376 {
		t.Fatalf("delivery at %v, want 376", s.times[0])
	}
}

func TestLinkBusyDuringSerialisation(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	l := New(eng, 1, 0, 8*units.Kilobyte, s)
	eng.At(0, func() {
		l.Send(pkt(1, packet.Control, 100))
		if l.Idle() {
			t.Error("link idle immediately after Send")
		}
	})
	eng.At(99, func() {
		if l.Idle() {
			t.Error("link idle one cycle before serialisation ends")
		}
	})
	eng.At(100, func() {
		if !l.Idle() {
			t.Error("link not idle after serialisation")
		}
	})
	eng.Drain()
}

func TestCreditsDecrementAndBlock(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	l := New(eng, 1, 0, 300, s) // tiny buffer: 300 bytes per VC
	eng.At(0, func() {
		p := pkt(1, packet.Control, 200)
		if !l.CanSend(p) {
			t.Error("CanSend false with full credits")
		}
		l.Send(p)
		if l.Credits(packet.VCRegulated) != 100 {
			t.Errorf("credits = %v, want 100", l.Credits(packet.VCRegulated))
		}
	})
	eng.At(500, func() {
		// Link is idle but only 100 credits remain: a 200-byte packet
		// must be blocked, a 100-byte one may pass.
		if l.CanSend(pkt(2, packet.Control, 200)) {
			t.Error("CanSend true beyond credits")
		}
		if !l.CanSend(pkt(3, packet.Control, 100)) {
			t.Error("CanSend false within credits")
		}
	})
	eng.Drain()
}

func TestCreditsArePerVC(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	l := New(eng, 1, 0, 300, s)
	eng.At(0, func() { l.Send(pkt(1, packet.Control, 300)) })
	eng.At(400, func() {
		// Regulated VC exhausted; best-effort VC must be unaffected.
		if l.CanSend(pkt(2, packet.Multimedia, 100)) {
			t.Error("regulated VC credits not exhausted")
		}
		if !l.CanSend(pkt(3, packet.BestEffort, 100)) {
			t.Error("best-effort VC wrongly blocked")
		}
	})
	eng.Drain()
}

func TestReturnCreditsDelayed(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	l := New(eng, 1, 50, 300, s)
	eng.At(0, func() { l.Send(pkt(1, packet.Control, 300)) })
	eng.At(1000, func() { l.ReturnCredits(packet.VCRegulated, 300) })
	eng.At(1049, func() {
		if l.Credits(packet.VCRegulated) != 0 {
			t.Error("credits returned before reverse propagation delay")
		}
	})
	eng.At(1051, func() {
		if l.Credits(packet.VCRegulated) != 300 {
			t.Errorf("credits = %v after return, want 300", l.Credits(packet.VCRegulated))
		}
	})
	eng.Drain()
}

func TestOnReadyFiresOnIdleAndCredits(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	l := New(eng, 1, 10, units.Kilobyte, s)
	ready := 0
	l.OnReady = func() { ready++ }
	eng.At(0, func() { l.Send(pkt(1, packet.Control, 100)) })
	eng.At(500, func() { l.ReturnCredits(packet.VCRegulated, 100) })
	eng.Drain()
	if ready != 2 {
		t.Fatalf("OnReady fired %d times, want 2 (idle + credit return)", ready)
	}
}

func TestSendWithoutCreditsPanics(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	l := New(eng, 1, 0, 50, s)
	defer func() {
		if recover() == nil {
			t.Fatal("Send beyond credits did not panic")
		}
	}()
	eng.At(0, func() { l.Send(pkt(1, packet.Control, 100)) })
	eng.Drain()
}

func TestHalfRateLink(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	l := New(eng, 0.5, 0, units.Kilobyte, s) // 4 Gb/s
	eng.At(0, func() { l.Send(pkt(1, packet.Control, 100)) })
	eng.Drain()
	if s.times[0] != 200 {
		t.Fatalf("half-rate delivery at %v, want 200", s.times[0])
	}
}

func TestSentCounters(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	l := New(eng, 1, 0, units.Kilobyte, s)
	eng.At(0, func() { l.Send(pkt(1, packet.Control, 100)) })
	eng.At(200, func() { l.Send(pkt(2, packet.BestEffort, 50)) })
	eng.Drain()
	n, b := l.Sent()
	if n != 2 || b != 150 {
		t.Fatalf("Sent() = %d,%v; want 2,150", n, b)
	}
}

func TestFlapLosesInFlightAndRestoresCredits(t *testing.T) {
	// A packet in flight when the link goes down is lost, and a packet
	// transmitted while the link is down is lost too: the receiver never
	// sees either, OnDrop observes them, and their credits return to the
	// sender at the would-be arrival times — flow control balances
	// exactly, and a down link never refuses transmission (refusing would
	// head-of-line-block the upstream queue for the outage's duration).
	eng := sim.New()
	s := &sink{eng: eng}
	l := New(eng, 1, 50, 300, s)
	var dropped []*packet.Packet
	l.OnDrop = func(p *packet.Packet) { dropped = append(dropped, p) }
	eng.At(0, func() { l.Send(pkt(1, packet.Control, 200)) })
	// Serialisation ends at 200, arrival would be 250: flap at 210.
	eng.At(210, func() {
		if !l.SetDown(true) {
			t.Error("SetDown(true) reported no change")
		}
		p := pkt(2, packet.Control, 50)
		if !l.CanSend(p) {
			t.Fatal("CanSend false on a down link (must transmit into the void, not block)")
		}
		// Transmitted onto the dead cable: serialises 210..260, would-be
		// arrival 310, lost there with its credits restored.
		l.Send(p)
	})
	eng.At(240, func() {
		if got := l.Credits(packet.VCRegulated); got != 50 {
			t.Errorf("credits %v before any would-be arrival, want 50", got)
		}
	})
	eng.At(260, func() {
		if got := l.Credits(packet.VCRegulated); got != 250 {
			t.Errorf("credits %v after in-flight loss accounting, want 250", got)
		}
		if l.InFlight() != 1 {
			t.Errorf("in-flight %d with packet 2 on the dead wire, want 1", l.InFlight())
		}
	})
	eng.At(320, func() {
		if got := l.Credits(packet.VCRegulated); got != 300 {
			t.Errorf("credits %v after all loss accounting, want 300 (restored)", got)
		}
		if l.InFlight() != 0 {
			t.Errorf("in-flight %d after losses, want 0", l.InFlight())
		}
	})
	eng.Drain()
	if len(s.got) != 0 {
		t.Fatalf("down link delivered %d packets", len(s.got))
	}
	if len(dropped) != 2 || dropped[0].ID != 1 || dropped[1].ID != 2 {
		t.Fatalf("OnDrop saw %v, want packets 1 and 2", dropped)
	}
	if l.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2", l.Dropped())
	}
}

func TestFlapRecoveryResumesTraffic(t *testing.T) {
	// Credits returned by the downstream keep flowing while the link is
	// down (out-of-band control channel), recovery fires OnReady, and a
	// sender re-arbitrating from OnReady resumes cleanly — the credit
	// accounting across the whole flap cycle ends balanced.
	eng := sim.New()
	s := &sink{eng: eng}
	l := New(eng, 1, 10, 300, s)
	var backlog []*packet.Packet
	l.OnReady = func() {
		for len(backlog) > 0 && l.CanSend(backlog[0]) {
			p := backlog[0]
			backlog = backlog[1:]
			l.Send(p)
		}
	}
	eng.At(0, func() { l.Send(pkt(1, packet.Control, 300)) })
	// Delivered at 310; downstream drains and returns credits at 400
	// while the link is down.
	eng.At(350, func() { l.SetDown(true) })
	eng.At(400, func() { l.ReturnCredits(packet.VCRegulated, 300) })
	eng.At(420, func() {
		if got := l.Credits(packet.VCRegulated); got != 300 {
			t.Errorf("credits %v while down, want 300 (returns are out-of-band)", got)
		}
		// A sender retrying while the link is down transmits into the
		// void: the packet serialises 420..520, is lost at the would-be
		// arrival 530, and its credits come back.
		backlog = append(backlog, pkt(2, packet.Control, 100))
		l.OnReady()
		if len(backlog) != 0 {
			t.Error("packet refused while link down (down links must keep draining)")
		}
	})
	eng.At(500, func() {
		if !l.SetDown(false) {
			t.Error("SetDown(false) reported no change")
		}
	})
	eng.At(540, func() {
		if got := l.Credits(packet.VCRegulated); got != 300 {
			t.Errorf("credits %v after void-send loss accounting, want 300", got)
		}
		if l.Dropped() != 1 {
			t.Errorf("Dropped() = %d after void send, want 1", l.Dropped())
		}
		// The recovered link carries traffic again: send 540..640, +10.
		backlog = append(backlog, pkt(3, packet.Control, 100))
		l.OnReady()
	})
	eng.Drain()
	if len(s.got) != 2 {
		t.Fatalf("delivered %d packets, want 2 (recovery resumed traffic)", len(s.got))
	}
	if s.times[1] != 650 {
		t.Fatalf("post-recovery delivery at %v, want 650", s.times[1])
	}
	if got := l.Credits(packet.VCRegulated); got != 200 {
		t.Fatalf("credits %v after recovery send, want 200", got)
	}
}

func TestDoubleDownUpAreNoOps(t *testing.T) {
	eng := sim.New()
	l := New(eng, 1, 0, 300, &sink{eng: eng})
	if l.SetDown(false) {
		t.Error("SetDown(false) on an up link reported a change")
	}
	if !l.SetDown(true) || l.SetDown(true) {
		t.Error("down transition change-reporting wrong")
	}
	if !l.SetDown(false) || l.SetDown(false) {
		t.Error("up transition change-reporting wrong")
	}
}

func TestDerateChangesTiming(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	l := New(eng, 1, 0, units.Kilobyte, s)
	eng.At(0, func() {
		if !l.Derate(0.5) {
			t.Error("Derate(0.5) reported no change")
		}
		if l.Derate(0.5) {
			t.Error("repeated Derate(0.5) reported a change")
		}
		l.Send(pkt(1, packet.Control, 100))
	})
	eng.At(300, func() {
		l.Derate(1)
		l.Send(pkt(2, packet.Control, 100))
	})
	eng.Drain()
	if s.times[0] != 200 {
		t.Fatalf("derated delivery at %v, want 200", s.times[0])
	}
	if s.times[1] != 400 {
		t.Fatalf("restored delivery at %v, want 400", s.times[1])
	}
}

func TestCreditLeakPanics(t *testing.T) {
	eng := sim.New()
	l := New(eng, 1, 0, 300, &sink{eng: eng})
	defer func() {
		if recover() == nil {
			t.Fatal("over-returning credits did not panic")
		}
	}()
	eng.At(0, func() { l.ReturnCredits(packet.VCRegulated, 100) })
	eng.Drain()
}

func TestBackToBackPackets(t *testing.T) {
	// Two packets sent as soon as the link frees must arrive exactly one
	// serialisation apart.
	eng := sim.New()
	s := &sink{eng: eng}
	l := New(eng, 1, 30, units.Kilobyte, s)
	second := pkt(2, packet.Control, 100)
	l.OnReady = func() {
		if l.CanSend(second) && second.Hop == 0 {
			second.Hop = -1 // mark sent (abuse of field local to this test)
			l.Send(second)
		}
	}
	eng.At(0, func() { l.Send(pkt(1, packet.Control, 100)) })
	eng.Drain()
	if len(s.got) != 2 {
		t.Fatalf("delivered %d, want 2", len(s.got))
	}
	if s.times[1]-s.times[0] != 100 {
		t.Fatalf("inter-arrival %v, want 100 (one serialisation)", s.times[1]-s.times[0])
	}
}

// creditSink drains at line rate, returning credits to its link.
type creditSink struct {
	up       *Link
	received int
}

func (s *creditSink) Receive(p *packet.Packet) {
	s.received++
	s.up.ReturnCredits(p.VC, p.Size)
}

func TestSendCycleAllocatesNothing(t *testing.T) {
	// One packet through serialisation, arrival and the credit return:
	// the link-free, arrival and credit events are typed, so a warm
	// engine runs the whole cycle without allocating.
	eng := sim.New()
	s := &creditSink{}
	l := New(eng, 1, 20, 8*units.Kilobyte, s)
	s.up = l
	ready := 0
	l.OnReady = func() { ready++ }
	p := pkt(1, packet.Control, 2*units.Kilobyte)
	if n := testing.AllocsPerRun(1000, func() {
		l.Send(p)
		eng.Drain()
	}); n != 0 {
		t.Errorf("Send cycle allocates %v times per packet, want 0", n)
	}
	if s.received != 1001 || ready != 2*1001 || l.Credits(packet.VCRegulated) != 8*units.Kilobyte {
		t.Fatalf("received %d, OnReady %d, credits %v; want 1001, 2002, full",
			s.received, ready, l.Credits(packet.VCRegulated))
	}
}

// refCorruptionProb is the corruption probability with the logarithm
// taken on every call: 1 - (1-ber)^bits.
func refCorruptionProb(ber float64, size units.Size) float64 {
	if ber <= 0 {
		return 0
	}
	return -math.Expm1(float64(8*size) * math.Log1p(-ber))
}

// TestCorruptionProbMatchesReference requires the link's probability,
// with log1p(-BER) taken once in SetBER, to equal the reference bit for
// bit at every BER decade and every size from a 1-byte payload to the
// MTU, so every corruption draw is unchanged.
func TestCorruptionProbMatchesReference(t *testing.T) {
	l := New(sim.New(), 1, 1, 8*units.Kilobyte, &sink{})
	for _, ber := range []float64{1e-9, 3e-9, 1e-8, 1e-7, 2.5e-7, 1e-6, 1e-5, 7e-5, 1e-4, 1e-3} {
		l.SetBER(ber, xrand.New(1))
		for size := packet.HeaderSize + 1; size <= 2*units.Kilobyte; size++ {
			got, want := l.corruptionProb(size), refCorruptionProb(ber, size)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("BER %g size %v: %v, reference %v", ber, size, got, want)
			}
		}
	}
	l.SetBER(0, nil)
	if l.berLog != 0 {
		t.Fatalf("BER 0 leaves the bit-error process on (log %v)", l.berLog)
	}
}
