package pqueue

import (
	"testing"

	"deadlineqos/internal/packet"
	"deadlineqos/internal/units"
)

// vpkt builds a best-effort packet with an explicit value density
// (milli-units per byte), mirroring how hostif stamps Value.
func vpkt(deadline units.Time, size units.Size, density int64) *packet.Packet {
	p := pkt(deadline, size)
	p.Value = density * int64(size)
	return p
}

func TestDropQueueFIFOOrder(t *testing.T) {
	q := NewDropQueue[*packet.Packet](units.Kilobyte, false, false)
	var want []uint64
	for i := 0; i < 5; i++ {
		p := vpkt(units.Time(100-i), 64, 1)
		want = append(want, p.ID)
		q.Push(p)
	}
	for _, id := range want {
		if got := q.Pop(); got.ID != id {
			t.Fatalf("pop %d, want %d", got.ID, id)
		}
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Fatalf("drained queue holds %d packets / %v bytes", q.Len(), q.Bytes())
	}
}

func TestDropQueueEDFHead(t *testing.T) {
	q := NewDropQueue[*packet.Packet](units.Kilobyte, false, true)
	q.Push(vpkt(300, 64, 1))
	late := vpkt(100, 64, 1)
	q.Push(late)
	q.Push(vpkt(200, 64, 1))
	if h := q.Head(); h.ID != late.ID {
		t.Fatalf("EDF head %d (deadline %v), want earliest-deadline %d", h.ID, h.Deadline, late.ID)
	}
	if p := q.Pop(); p.ID != late.ID {
		t.Fatalf("EDF pop %d, want %d", p.ID, late.ID)
	}
}

func TestDropQueueEvictsLowestDensity(t *testing.T) {
	q := NewDropQueue[*packet.Packet](300, false, false)
	cheap := vpkt(10, 100, 1)
	mid := vpkt(20, 100, 5)
	rich := vpkt(30, 100, 9)
	q.Push(cheap)
	q.Push(mid)
	q.Push(rich)
	var gone []uint64
	q.SetOnEvict(func(p *packet.Packet) { gone = append(gone, p.ID) })
	newcomer := vpkt(40, 100, 7)
	q.Push(newcomer) // overflow: cheap (density 1) must go
	if len(gone) != 1 || gone[0] != cheap.ID {
		t.Fatalf("evicted %v, want lowest-density %d", gone, cheap.ID)
	}
	if n, b := q.Evicted(); n != 1 || b != 100 {
		t.Fatalf("eviction counters %d/%v, want 1/100", n, b)
	}
	if q.Bytes() != 300 || q.Len() != 3 {
		t.Fatalf("after eviction: %d packets / %v bytes", q.Len(), q.Bytes())
	}
	// The survivors drain in arrival order (FIFO mode).
	for _, id := range []uint64{mid.ID, rich.ID, newcomer.ID} {
		if got := q.Pop(); got.ID != id {
			t.Fatalf("pop %d, want %d", got.ID, id)
		}
	}
}

func TestDropQueueRejectsNoDenserNewcomer(t *testing.T) {
	q := NewDropQueue[*packet.Packet](200, false, false)
	a := vpkt(10, 100, 5)
	b := vpkt(20, 100, 5)
	q.Push(a)
	q.Push(b)
	var gone []uint64
	q.SetOnEvict(func(p *packet.Packet) { gone = append(gone, p.ID) })
	// Equal density: the tie keeps the older residents, the newcomer dies.
	q.Push(vpkt(30, 100, 5))
	// Strictly less dense: same verdict.
	q.Push(vpkt(40, 100, 2))
	if len(gone) != 2 {
		t.Fatalf("evicted %d packets, want the 2 newcomers", len(gone))
	}
	if q.Len() != 2 || q.Head().ID != a.ID {
		t.Fatalf("residents disturbed: len %d head %v", q.Len(), q.Head().ID)
	}
}

func TestDropQueueTailMode(t *testing.T) {
	q := NewDropQueue[*packet.Packet](200, true, false)
	cheap := vpkt(10, 100, 1)
	q.Push(cheap)
	q.Push(vpkt(20, 100, 1))
	q.Push(vpkt(30, 100, 99)) // tail drop is value-blind: the rich newcomer dies
	if n, _ := q.Evicted(); n != 1 {
		t.Fatalf("evictions %d, want 1", n)
	}
	if q.Head().ID != cheap.ID || q.Len() != 2 {
		t.Fatalf("tail mode disturbed the residents")
	}
}

func TestDropQueueOversizedPacket(t *testing.T) {
	q := NewDropQueue[*packet.Packet](100, false, false)
	q.Push(vpkt(10, 500, 100)) // can never fit, even into an empty queue
	if q.Len() != 0 {
		t.Fatalf("oversized packet stored")
	}
	if n, b := q.Evicted(); n != 1 || b != 500 {
		t.Fatalf("oversized packet not counted: %d/%v", n, b)
	}
}

func TestDropQueueMultiEviction(t *testing.T) {
	q := NewDropQueue[*packet.Packet](300, false, false)
	q.Push(vpkt(10, 100, 1))
	q.Push(vpkt(20, 100, 2))
	q.Push(vpkt(30, 100, 3))
	rich := vpkt(40, 250, 10)
	q.Push(rich) // needs three residents' worth of space
	if n, b := q.Evicted(); n != 3 || b != 300 {
		t.Fatalf("evictions %d/%v, want 3/300", n, b)
	}
	if q.Len() != 1 || q.Bytes() != 250 || q.Head().ID != rich.ID {
		t.Fatalf("survivor wrong: len %d bytes %v", q.Len(), q.Bytes())
	}
}

func TestDropQueueScanArrivalOrder(t *testing.T) {
	q := NewDropQueue[*packet.Packet](units.Kilobyte, false, true) // EDF pops, arrival-ordered scan
	var want []uint64
	for i := 0; i < 4; i++ {
		p := vpkt(units.Time(50-i), 64, 1)
		want = append(want, p.ID)
		q.Push(p)
	}
	var got []uint64
	q.Scan(func(p *packet.Packet) {
		got = append(got, p.ID)
	})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order %v, want %v", got, want)
		}
	}
}

// TestDropQueueNeverExceedsCapacity drives a deterministic pseudo-random
// workload and checks the bounded-queue invariants against a naive model:
// stored bytes never exceed capacity, and every pushed packet is exactly
// once stored, popped, or evicted.
func TestDropQueueNeverExceedsCapacity(t *testing.T) {
	for _, edf := range []bool{false, true} {
		for _, tail := range []bool{false, true} {
			const cap = 500
			q := NewDropQueue[*packet.Packet](cap, tail, edf)
			evicted := 0
			q.SetOnEvict(func(*packet.Packet) { evicted++ })
			rng := uint64(12345)
			next := func(n uint64) uint64 {
				rng = rng*6364136223846793005 + 1442695040888963407
				return (rng >> 33) % n
			}
			pushed, popped := 0, 0
			for i := 0; i < 2000; i++ {
				if next(3) == 0 && q.Len() > 0 {
					if q.Pop() == nil {
						t.Fatal("pop returned nil on non-empty queue")
					}
					popped++
					continue
				}
				size := units.Size(next(200) + 1)
				q.Push(vpkt(units.Time(next(1000)), size, int64(next(10))))
				pushed++
				if q.Bytes() > cap {
					t.Fatalf("edf=%v tail=%v: %v bytes stored > %v capacity", edf, tail, q.Bytes(), cap)
				}
			}
			if pushed != popped+evicted+q.Len() {
				t.Fatalf("edf=%v tail=%v: %d pushed != %d popped + %d evicted + %d stored",
					edf, tail, pushed, popped, evicted, q.Len())
			}
			n, _ := q.Evicted()
			if int(n) != evicted {
				t.Fatalf("counter %d != callback count %d", n, evicted)
			}
		}
	}
}
