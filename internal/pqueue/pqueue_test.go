package pqueue

import (
	"testing"

	"deadlineqos/internal/packet"
	"deadlineqos/internal/units"
)

var nextID uint64

func pkt(deadline units.Time, size units.Size) *packet.Packet {
	nextID++
	return &packet.Packet{ID: nextID, Deadline: deadline, Size: size}
}

func flowPkt(flow packet.FlowID, seq uint64, deadline units.Time) *packet.Packet {
	p := pkt(deadline, 64)
	p.Flow = flow
	p.Seq = seq
	return p
}

func TestNewDispatch(t *testing.T) {
	for _, d := range []Discipline{FIFO, Heap, TakeOver} {
		b := New(d, units.Kilobyte, false)
		if b == nil {
			t.Fatalf("New(%v) = nil", d)
		}
		if b.Capacity() != units.Kilobyte {
			t.Errorf("New(%v).Capacity() = %v", d, b.Capacity())
		}
	}
}

func TestDisciplineString(t *testing.T) {
	if FIFO.String() != "fifo" || Heap.String() != "heap" || TakeOver.String() != "takeover" {
		t.Error("discipline names wrong")
	}
	if Discipline(99).String() == "" {
		t.Error("unknown discipline must still render")
	}
}

func TestNewUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(unknown) did not panic")
		}
	}()
	New(Discipline(99), units.Kilobyte, false)
}

func TestFIFOOrder(t *testing.T) {
	f := NewFIFO[*packet.Packet](units.Kilobyte, false)
	var want []uint64
	for i := 0; i < 10; i++ {
		p := pkt(units.Time(100-i), 10) // deliberately decreasing deadlines
		want = append(want, p.ID)
		f.Push(p)
	}
	for i, id := range want {
		if h := f.Head(); h.ID != id {
			t.Fatalf("step %d: Head = %d, want %d", i, h.ID, id)
		}
		if p := f.Pop(); p.ID != id {
			t.Fatalf("step %d: Pop = %d, want %d", i, p.ID, id)
		}
	}
	if f.Pop() != nil || f.Head() != nil {
		t.Fatal("empty FIFO must return nil")
	}
}

func TestFIFORingWraparound(t *testing.T) {
	f := NewFIFO[*packet.Packet](units.Megabyte, false)
	// Interleave pushes and pops to force the ring head to wrap.
	seq := uint64(0)
	popped := uint64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			seq++
			p := pkt(0, 8)
			p.Seq = seq
			f.Push(p)
		}
		for i := 0; i < 2; i++ {
			popped++
			if p := f.Pop(); p.Seq != popped {
				t.Fatalf("ring corrupted: popped seq %d, want %d", p.Seq, popped)
			}
		}
	}
	for f.Len() > 0 {
		popped++
		if p := f.Pop(); p.Seq != popped {
			t.Fatalf("drain: popped seq %d, want %d", p.Seq, popped)
		}
	}
}

func TestHeapEmitsMinDeadline(t *testing.T) {
	h := NewHeap[*packet.Packet](units.Kilobyte, false)
	deadlines := []units.Time{50, 10, 30, 20, 40}
	for _, d := range deadlines {
		h.Push(pkt(d, 10))
	}
	var got []units.Time
	for h.Len() > 0 {
		got = append(got, h.Pop().Deadline)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("heap emitted out of deadline order: %v", got)
		}
	}
}

func TestHeapStableOnTies(t *testing.T) {
	h := NewHeap[*packet.Packet](units.Kilobyte, false)
	var ids []uint64
	for i := 0; i < 5; i++ {
		p := pkt(42, 10)
		ids = append(ids, p.ID)
		h.Push(p)
	}
	for _, id := range ids {
		if p := h.Pop(); p.ID != id {
			t.Fatalf("equal-deadline packets not FIFO: got %d, want %d", p.ID, id)
		}
	}
}

func TestByteAccounting(t *testing.T) {
	for _, d := range []Discipline{FIFO, Heap, TakeOver} {
		b := New(d, 100, false)
		b.Push(pkt(1, 30))
		b.Push(pkt(2, 50))
		if b.Bytes() != 80 || b.Free() != 20 {
			t.Errorf("%v: Bytes=%v Free=%v, want 80/20", d, b.Bytes(), b.Free())
		}
		b.Pop()
		if b.Bytes() != 50 || b.Free() != 50 {
			t.Errorf("%v after pop: Bytes=%v, want 50", d, b.Bytes())
		}
		if b.Pushes() != 2 || b.Pushes()-uint64(b.Len()) != 1 {
			t.Errorf("%v: Pushes=%d with Len=%d, want 2 pushes and 1 pop", d, b.Pushes(), b.Len())
		}
	}
}

func TestOverflowPanics(t *testing.T) {
	for _, d := range []Discipline{FIFO, Heap, TakeOver} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: overflow did not panic", d)
				}
			}()
			b := New(d, 100, false)
			b.Push(pkt(1, 60))
			b.Push(pkt(2, 60))
		}()
	}
}

func TestOrderErrorCounting(t *testing.T) {
	// A FIFO fed decreasing deadlines commits an order error on every pop
	// except the last (when only one packet remains it is trivially min).
	f := NewFIFO[*packet.Packet](units.Kilobyte, true)
	for i := 0; i < 5; i++ {
		f.Push(pkt(units.Time(100-i), 10))
	}
	for f.Len() > 0 {
		f.Pop()
	}
	if got := f.OrderErrors(); got != 4 {
		t.Errorf("FIFO order errors = %d, want 4", got)
	}

	// The heap never commits order errors.
	h := NewHeap[*packet.Packet](units.Kilobyte, true)
	for i := 0; i < 5; i++ {
		h.Push(pkt(units.Time(100-i), 10))
	}
	for h.Len() > 0 {
		h.Pop()
	}
	if got := h.OrderErrors(); got != 0 {
		t.Errorf("heap order errors = %d, want 0", got)
	}
}

func TestOrderErrorsInterleaved(t *testing.T) {
	// Order errors must be judged against the buffer contents at pop
	// time, not against the whole arrival history.
	f := NewFIFO[*packet.Packet](units.Kilobyte, true)
	f.Push(pkt(10, 8))
	f.Pop() // min, no error
	f.Push(pkt(30, 8))
	f.Push(pkt(20, 8))
	f.Pop() // pops 30 while 20 stored: error
	f.Pop() // pops 20, now min: no error
	if got := f.OrderErrors(); got != 1 {
		t.Errorf("order errors = %d, want 1", got)
	}
}

func TestUntrackedBuffersReportZero(t *testing.T) {
	f := NewFIFO[*packet.Packet](units.Kilobyte, false)
	f.Push(pkt(100, 8))
	f.Push(pkt(1, 8))
	f.Pop()
	if f.OrderErrors() != 0 {
		t.Error("untracked buffer reported order errors")
	}
}

func TestTakeOverEnqueueRouting(t *testing.T) {
	q := NewTakeOver(units.Kilobyte, false)
	q.Push(pkt(100, 10)) // both empty -> L
	if q.LLen() != 1 || q.ULen() != 0 {
		t.Fatalf("first push: L=%d U=%d, want 1/0", q.LLen(), q.ULen())
	}
	q.Push(pkt(200, 10)) // >= tail -> L
	q.Push(pkt(150, 10)) // < tail(200) -> U
	q.Push(pkt(200, 10)) // == tail -> L (>= rule)
	if q.LLen() != 3 || q.ULen() != 1 {
		t.Fatalf("L=%d U=%d, want 3/1", q.LLen(), q.ULen())
	}
	if q.TakeOvers() != 1 {
		t.Fatalf("TakeOvers = %d, want 1", q.TakeOvers())
	}
}

func TestTakeOverDequeuePicksSmallerHead(t *testing.T) {
	q := NewTakeOver(units.Kilobyte, false)
	q.Push(pkt(100, 10)) // L
	q.Push(pkt(300, 10)) // L
	q.Push(pkt(50, 10))  // U (takes over)
	var got []units.Time
	for q.Len() > 0 {
		got = append(got, q.Pop().Deadline)
	}
	want := []units.Time{50, 100, 300}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v", got, want)
		}
	}
}

func TestTakeOverEqualHeadsFIFOTieBreak(t *testing.T) {
	q := NewTakeOver(units.Kilobyte, false)
	a := pkt(100, 10)
	q.Push(a)            // L
	q.Push(pkt(300, 10)) // L
	b := pkt(100, 10)
	q.Push(b) // U: 100 < 300
	// Heads of L and U both have deadline 100; a arrived first.
	if h := q.Head(); h.ID != a.ID {
		t.Fatalf("tie-break chose %d, want earlier arrival %d", h.ID, a.ID)
	}
	q.Pop()
	if h := q.Head(); h.ID != b.ID {
		t.Fatalf("after pop, head = %d, want %d", h.ID, b.ID)
	}
}

// orderedQueueSorted checks Theorem 1: packets in L are in deadline order.
func orderedQueueSorted(q *TakeOverQueue) bool {
	prev := units.Time(-1 << 62)
	ok := true
	q.l.scan(func(e seqEntry) {
		if e.p.Deadline < prev {
			ok = false
		}
		prev = e.p.Deadline
	})
	return ok
}

// maxIsLTail checks Theorem 2: the max deadline across both queues is L's tail.
func maxIsLTail(q *TakeOverQueue) bool {
	if q.Len() == 0 {
		return true
	}
	tail := q.l.back().p
	if tail == nil {
		return false // Lemma 1 violated
	}
	ok := true
	q.Scan(func(p *packet.Packet) {
		if p.Deadline > tail.Deadline {
			ok = false
		}
	})
	return ok
}
