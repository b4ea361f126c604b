package switchsim

import (
	"testing"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/units"
	"deadlineqos/internal/xrand"
)

func TestBitsetNextVisitsMembersInOrder(t *testing.T) {
	b := newBitset(130)
	want := []int{0, 5, 63, 64, 65, 127, 128, 129}
	for _, i := range want {
		b.set(i)
	}
	var got []int
	for i := b.next(0); i >= 0; i = b.next(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visited %v, want %v", got, want)
		}
	}
	b.clear(64)
	if b.has(64) || b.next(64) != 65 || b.next(130) != -1 {
		t.Fatalf("after clear(64): has %v, next(64) %d, next(130) %d", b.has(64), b.next(64), b.next(130))
	}
}

// TestAuditChecksOccupancyBits pushes to and pops from random VOQs of a
// switch, at a radix inside one bitmap word and at one spanning two, and
// takes the switch down and up again, auditing after every step: the
// backlog and waiting bitmaps arbitration reads must track the VOQs
// throughout. Audit must also notice a bit that disagrees.
func TestAuditChecksOccupancyBits(t *testing.T) {
	for _, tc := range []struct{ radix, steps int }{{5, 4000}, {70, 1500}} {
		radix := tc.radix
		eng := sim.New()
		sw := New(Config{Eng: eng, Clock: packet.Clock{Base: eng.Now}, Radix: radix,
			Arch: arch.Advanced2VC, BufPerVC: 8 * units.Kilobyte})
		up := &countCredits{}
		for p := 0; p < radix; p++ {
			sw.ConnectUpstream(p, up)
		}
		audit := func(step int, what string) {
			t.Helper()
			if err := sw.Audit(); err != nil {
				t.Fatalf("radix %d step %d (%s): %v", radix, step, what, err)
			}
		}
		rng := xrand.New(uint64(radix))
		pushes, pops := 0, 0
		for step := 0; step < tc.steps; step++ {
			ip := sw.in[rng.Intn(radix)]
			switch k := rng.Intn(1000); {
			case k < 550:
				vc := packet.VC(rng.Intn(packet.NumVCs))
				size := units.Size(64 * (1 + rng.Intn(8)))
				if ip.pool[vc]+size > sw.cfg.BufPerVC {
					continue
				}
				testID++
				ip.pool[vc] += size
				sw.pushVOQ(ip, vc, rng.Intn(radix), &packet.Packet{ID: testID, VC: vc, Deadline: units.Time(rng.Intn(1000)), Size: size})
				pushes++
				audit(step, "push")
			case k < 995:
				// Pop the first non-empty VOQ from a random (output, VC)
				// of the first input from ip on that holds packets.
				for j := 0; j < radix && ip.pool == ([packet.NumVCs]units.Size{}); j++ {
					ip = sw.in[(ip.idx+1)%radix]
				}
				start := rng.Intn(radix * packet.NumVCs)
				for j := 0; j < radix*packet.NumVCs; j++ {
					x := (start + j) % (radix * packet.NumVCs)
					o, vc := x/packet.NumVCs, packet.VC(x%packet.NumVCs)
					if ip.voq[vc][o].Len() == 0 {
						continue
					}
					ip.pool[vc] -= sw.popVOQ(ip, vc, o).Size
					pops++
					audit(step, "pop")
					break
				}
			default:
				sw.SetDown(true)
				audit(step, "down")
				sw.SetDown(false)
				audit(step, "up")
			}
		}
		if pushes < tc.steps/3 || pops < tc.steps/4 {
			t.Fatalf("radix %d: only %d pushes and %d pops", radix, pushes, pops)
		}

		sw.SetDown(true) // every VOQ empty
		sw.out[radix-1].backlog[packet.VCRegulated].set(0)
		if sw.Audit() == nil {
			t.Fatalf("radix %d: Audit missed a backlog bit without a packet", radix)
		}
		sw.out[radix-1].backlog[packet.VCRegulated].clear(0)
		sw.in[0].waiting.set(radix - 1)
		if sw.Audit() == nil {
			t.Fatalf("radix %d: Audit missed a waiting bit without a packet", radix)
		}
		sw.in[0].waiting.clear(radix - 1)
		audit(-1, "restored")
	}
}

// TestAuditHoldsUnderTraffic audits the switch after every simulated
// instant of a random load from all inputs to all outputs, with the
// occupancy guard on so its floor walks the backlog bitmaps too.
func TestAuditHoldsUnderTraffic(t *testing.T) {
	r := newRigConfig(t, Config{Radix: 6, Arch: arch.Advanced2VC, BufPerVC: 8 * units.Kilobyte,
		TrackOrderErrors: true, GuardBytes: 4 * units.Kilobyte})
	// Each input sends its own backlog, in order, as credits allow.
	rng := xrand.New(7)
	backlog := make([][]*packet.Packet, 6)
	for j := 0; j < 600; j++ {
		cl := packet.Control
		if rng.Intn(3) == 0 {
			cl = packet.BestEffort
		}
		in := rng.Intn(6)
		backlog[in] = append(backlog[in],
			mkpkt(cl, units.Time(rng.Intn(300_000)), units.Size(64*(1+rng.Intn(16))), rng.Intn(6)))
	}
	var send func(in int)
	send = func(in int) {
		if q := backlog[in]; len(q) > 0 && r.up[in].CanSend(q[0]) {
			q[0].PackTTD(r.eng.Now())
			r.up[in].Send(q[0])
			backlog[in] = q[1:]
		}
		if len(backlog[in]) > 0 {
			r.eng.After(units.Time(1+rng.Intn(100)), func() { send(in) })
		}
	}
	for in := range backlog {
		in := in
		r.eng.At(0, func() { send(in) })
	}
	delivered := 0
	for {
		at, ok := r.eng.PeekTime()
		if !ok {
			break
		}
		r.eng.Run(at)
		if err := r.sw.Audit(); err != nil {
			t.Fatalf("t=%v: %v", at, err)
		}
	}
	for _, sn := range r.sinks {
		delivered += len(sn.got)
	}
	if delivered == 0 || r.sw.Queued() != 0 {
		t.Fatalf("delivered %d, %d still queued", delivered, r.sw.Queued())
	}
}
