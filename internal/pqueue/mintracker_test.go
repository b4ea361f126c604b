package pqueue

import (
	"container/heap"
	"testing"

	"deadlineqos/internal/packet"
	"deadlineqos/internal/units"
	"deadlineqos/internal/xrand"
)

// naiveMin is the reference model for the lazy-deletion minTracker: a flat
// multiset whose minimum is recomputed from scratch on every query.
type naiveMin struct {
	entries []minEntry
}

func (n *naiveMin) add(p *packet.Packet) {
	n.entries = append(n.entries, minEntry{p.Deadline, p.ID})
}

func (n *naiveMin) remove(p *packet.Packet) {
	for i, e := range n.entries {
		if e.id == p.ID {
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
			return
		}
	}
	panic("naiveMin: removing an absent id")
}

func (n *naiveMin) min() units.Time {
	m := units.Infinity
	for _, e := range n.entries {
		if e.deadline < m {
			m = e.deadline
		}
	}
	return m
}

// driveTracker replays one op stream against both the tracker and the
// naive model. Each byte is one op: low bits choose add/remove/query, the
// deadline comes from a deterministic hash of the position. It returns
// early on malformed streams (nothing to remove).
func driveTracker(t *testing.T, ops []byte) {
	t.Helper()
	tr := newMinTracker()
	var ref naiveMin
	live := make([]*packet.Packet, 0, len(ops))
	var nextID uint64 = 1
	for i, op := range ops {
		switch {
		case op%4 != 0 || len(live) == 0: // add (3 in 4, or forced when empty)
			// A tight deadline range forces duplicate deadlines, the case
			// lazy deletion must disambiguate by id.
			p := &packet.Packet{ID: nextID, Deadline: units.Time(int(op)/4 + i%7)}
			nextID++
			tr.add(p)
			ref.add(p)
			live = append(live, p)
		default: // remove an arbitrary live packet
			idx := (int(op)/4 + i) % len(live)
			p := live[idx]
			live = append(live[:idx], live[idx+1:]...)
			tr.remove(p)
			ref.remove(p)
		}
		if got, want := tr.min(), ref.min(); got != want {
			t.Fatalf("op %d: tracker min %v, naive min %v (%d live)", i, got, want, len(live))
		}
	}
	// Drain completely: the lazy heap must compact to empty.
	for _, p := range live {
		tr.remove(p)
		ref.remove(p)
	}
	if got := tr.min(); got != units.Infinity {
		t.Fatalf("drained tracker min %v, want Infinity", got)
	}
	if len(tr.entries) != 0 || len(tr.dead) != 0 {
		t.Fatalf("drained tracker retains %d entries / %d dead ids", len(tr.entries), len(tr.dead))
	}
}

// TestMinTrackerMatchesNaive runs deterministic pseudo-random op streams
// through driveTracker (the always-on arm of the fuzz property below).
func TestMinTrackerMatchesNaive(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := seed * 0x9e3779b97f4a7c15
		ops := make([]byte, 600)
		for i := range ops {
			rng = rng*6364136223846793005 + 1442695040888963407
			ops[i] = byte(rng >> 56)
		}
		driveTracker(t, ops)
	}
}

// FuzzMinTracker lets the fuzzer search for op interleavings where lazy
// compaction and the naive recomputed minimum disagree.
func FuzzMinTracker(f *testing.F) {
	f.Add([]byte{1, 1, 1, 0, 0, 0})
	f.Add([]byte{5, 9, 13, 4, 8, 12, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		driveTracker(t, ops)
	})
}

// refMinHeap is the container/heap formulation minTracker's hand-rolled
// sift replaces, kept as the reference it must reproduce.
type refMinHeap []minEntry

func (h refMinHeap) Len() int           { return len(h) }
func (h refMinHeap) Less(i, j int) bool { return h[i].deadline < h[j].deadline }
func (h refMinHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refMinHeap) Push(x any)        { *h = append(*h, x.(minEntry)) }
func (h *refMinHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// refMinTracker is the lazy-deletion tracker as written on container/heap.
type refMinTracker struct {
	entries refMinHeap
	dead    map[uint64]int
}

func (t *refMinTracker) add(p *packet.Packet) { heap.Push(&t.entries, minEntry{p.Deadline, p.ID}) }

func (t *refMinTracker) remove(p *packet.Packet) {
	t.dead[p.ID]++
	for len(t.entries) > 0 {
		top := t.entries[0]
		n, stale := t.dead[top.id]
		if !stale {
			return
		}
		if n == 1 {
			delete(t.dead, top.id)
		} else {
			t.dead[top.id] = n - 1
		}
		heap.Pop(&t.entries)
	}
}

// TestMinTrackerMatchesContainerHeap drives minTracker and the
// container/heap formulation with one pseudo-random stream of adds and
// removes over a narrow deadline range, so ties are frequent. After every
// operation both must hold the same entries in the same heap layout.
func TestMinTrackerMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		tr := newMinTracker()
		ref := &refMinTracker{dead: make(map[uint64]int)}
		var live []*packet.Packet
		for op := 0; op < 2000; op++ {
			if len(live) == 0 || rng.Float64() < 0.55 {
				p := pkt(units.Time(rng.Intn(12)), 64)
				tr.add(p)
				ref.add(p)
				live = append(live, p)
			} else {
				i := rng.Intn(len(live))
				p := live[i]
				live = append(live[:i], live[i+1:]...)
				tr.remove(p)
				ref.remove(p)
			}
			if len(tr.entries) != len(ref.entries) || len(tr.dead) != len(ref.dead) {
				t.Fatalf("seed %d op %d: %d entries / %d dead, reference %d / %d",
					seed, op, len(tr.entries), len(tr.dead), len(ref.entries), len(ref.dead))
			}
			for i := range tr.entries {
				if tr.entries[i] != ref.entries[i] {
					t.Fatalf("seed %d op %d: layout differs at index %d: %+v, reference %+v",
						seed, op, i, tr.entries[i], ref.entries[i])
				}
			}
		}
	}
}

// TestTrackedPushPopAllocatesNothing pins the order-error oracle's steady
// state at zero allocations per tracked Push+Pop, for every discipline.
func TestTrackedPushPopAllocatesNothing(t *testing.T) {
	for _, d := range []Discipline{FIFO, Heap, TakeOver} {
		b := New(d, units.Size(1)<<40, true)
		// A fresh packet per push (AllocsPerRun makes one extra warm-up
		// call), deadlines mostly rising as a flow's are.
		pkts := make([]*packet.Packet, 32+1001)
		for i := range pkts {
			pkts[i] = pkt(units.Time(i+i*7%23), 64)
		}
		for _, p := range pkts[:32] {
			b.Push(p)
		}
		i := 32
		if n := testing.AllocsPerRun(1000, func() {
			b.Push(pkts[i])
			b.Pop()
			i++
		}); n != 0 {
			t.Errorf("%v: tracked Push+Pop allocates %v times, want 0", d, n)
		}
	}
}
