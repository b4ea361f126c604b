package pqueue

import (
	"container/heap"
	"testing"

	"deadlineqos/internal/packet"
	"deadlineqos/internal/units"
	"deadlineqos/internal/xrand"
)

// refEntry is a reference heap entry: it keys on the packet's live
// Deadline, where heapEntry keeps a copy of it.
type refEntry struct {
	p   *packet.Packet
	seq uint64
}

// refHeap is the container/heap formulation DeadlineHeap replaces, kept
// as the reference its hand-rolled sift must reproduce.
type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].p.Deadline != h[j].p.Deadline {
		return h[i].p.Deadline < h[j].p.Deadline
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestDeadlineHeapMatchesContainerHeap drives DeadlineHeap and the
// container/heap reference with the same pseudo-random stream of
// interleaved pushes and pops over a narrow deadline range, so ties are
// frequent. Every pop must return the same packet, and after every
// operation both heaps must hold their entries in the same layout.
func TestDeadlineHeapMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		d := NewHeap(units.Size(1)<<40, false)
		var ref refHeap
		var seq uint64
		for op := 0; op < 2000; op++ {
			if d.Len() == 0 || rng.Float64() < 0.55 {
				p := pkt(units.Time(rng.Intn(12)), 64)
				d.Push(p)
				heap.Push(&ref, refEntry{p, seq})
				seq++
			} else {
				got := d.Pop()
				want := heap.Pop(&ref).(refEntry).p
				if got != want {
					t.Fatalf("seed %d op %d: Pop = packet %d (deadline %v), reference %d (deadline %v)",
						seed, op, got.ID, got.Deadline, want.ID, want.Deadline)
				}
			}
			i := 0
			d.Scan(func(p *packet.Packet) {
				if p != ref[i].p {
					t.Fatalf("seed %d op %d: layout differs at index %d", seed, op, i)
				}
				i++
			})
			if i != len(ref) {
				t.Fatalf("seed %d op %d: %d entries, reference %d", seed, op, i, len(ref))
			}
		}
	}
}

func TestDeadlineHeapAllocatesNothing(t *testing.T) {
	d := NewHeap(units.Size(1)<<40, false)
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		pkts[i] = pkt(units.Time(i*7%23), 64)
	}
	for _, p := range pkts[:32] {
		d.Push(p)
	}
	i := 32
	if n := testing.AllocsPerRun(1000, func() {
		d.Push(pkts[i%len(pkts)])
		d.Pop()
		i++
	}); n != 0 {
		t.Errorf("Push+Pop allocates %v times, want 0", n)
	}
}

// TestDeadlineHeapPopPanicsOnChangedDeadline: the heap sorts on the
// deadline each packet was pushed with, so a deadline rewritten while the
// packet is stored would silently corrupt the order. Pop refuses it.
func TestDeadlineHeapPopPanicsOnChangedDeadline(t *testing.T) {
	d := NewHeap(units.Kilobyte, false)
	p := pkt(100, 64)
	d.Push(p)
	p.Deadline = 50
	defer func() {
		if recover() == nil {
			t.Fatal("Pop of a packet whose deadline changed in the buffer did not panic")
		}
	}()
	d.Pop()
}
