package pqueue

import (
	"container/heap"
	"fmt"
	"testing"

	"deadlineqos/internal/packet"
	"deadlineqos/internal/paged"
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
// container/heap reference with the same pseudo-random stream of pushes
// and pops over a narrow deadline range, so ties are frequent. Every pop
// must return the same packet, and after every operation both heaps must
// hold their entries in the same layout. The stream interleaves pushes
// and pops for 2,000 operations, then pushes nine times in ten until the
// heap fills more than three pages, then drains it, so the sift crosses
// page boundaries both ways.
func TestDeadlineHeapMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		d := NewHeap[*packet.Packet](units.Size(1)<<40, false)
		var ref refHeap
		var seq uint64
		op := 0
		step := func(push bool) {
			if push {
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
			op++
		}
		for op < 2000 {
			step(d.Len() == 0 || rng.Float64() < 0.55)
		}
		for d.Len() <= 3*paged.PageLen {
			step(rng.Float64() < 0.9)
		}
		for d.Len() > 0 {
			step(false)
		}
	}
}

func TestDeadlineHeapAllocatesNothing(t *testing.T) {
	d := NewHeap[*packet.Packet](units.Size(1)<<40, false)
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
	d := NewHeap[*packet.Packet](units.Kilobyte, false)
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

// BenchmarkDeepHeap times one push and one pop on a heap holding depth
// packets. Deadlines rise as at a NIC, where each flow stamps later
// deadlines than the ones already staged, so a push settles near the
// bottom and a pop sifts through every level. Depth 32 stays within the
// first page; depth 4,096 spans eight pages.
func BenchmarkDeepHeap(b *testing.B) {
	for _, depth := range []int{32, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			rng := xrand.New(1)
			d := NewHeap[*packet.Packet](units.Size(1)<<40, false)
			next := units.Time(0)
			for i := 0; i < depth; i++ {
				next += units.Time(rng.Intn(100))
				d.Push(pkt(next, 64))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := d.Pop()
				next += units.Time(rng.Intn(100))
				p.Deadline = next
				d.Push(p)
			}
		})
	}
}

// BenchmarkBuffers measures push+pop through the three buffer disciplines
// under a deadline-shuffled workload — the per-packet cost that separates
// the Ideal architecture's heap from the paper's FIFO-based designs.
func BenchmarkBuffers(b *testing.B) {
	for _, d := range []Discipline{FIFO, Heap, TakeOver} {
		b.Run(d.String(), func(b *testing.B) {
			rng := xrand.New(1)
			buf := New(d, 1<<40, false)
			pkts := make([]*packet.Packet, 64)
			dl := units.Time(0)
			for i := range pkts {
				dl += units.Time(rng.UniformInt(-5, 40)) // mostly increasing
				pkts[i] = &packet.Packet{ID: uint64(i + 1), Deadline: dl, Size: 64}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Push(pkts[i%len(pkts)])
				if buf.Len() >= 32 {
					buf.Pop()
				}
			}
		})
	}
}
