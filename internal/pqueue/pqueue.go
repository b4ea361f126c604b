// Package pqueue implements the packet buffer disciplines that distinguish
// the paper's four switch architectures:
//
//   - FIFO: a plain first-in first-out queue. Used for every buffer of the
//     Traditional architecture and for the Simple architecture (where the
//     arbiter still compares deadlines, but only of FIFO heads).
//   - Heap: an ordered buffer that always exposes the stored packet with the
//     smallest deadline ("Ideal" architecture; in hardware this would be the
//     pipelined heap of Ioannou & Katevenis, which the paper deems too
//     expensive for high-radix switches).
//   - TakeOver: the paper's contribution (§3.4) — two FIFO queues, an
//     "ordered" queue L and a "take-over" queue U. A packet is appended to L
//     iff its deadline is not smaller than L's tail; otherwise it goes to U.
//     Dequeue takes the smaller-deadline head of the two. The appendix
//     theorems (encoded in this package's tests) prove this never reorders
//     packets of a single flow.
//
// Fifo, DeadlineHeap and DropQueue are generic over what they store
// (Entry): switch ports store packets (Buffer), and a NIC's injection
// queues store the records its packets wait in until the link takes them
// (packet.Staged). TakeOverQueue is a switch-port discipline only and
// stores packets. Every discipline implements Queue, so ports are built
// independently of the architecture being simulated.
//
// Order-error accounting: a dequeue commits an order error when the packet
// it emits does not have the minimum deadline currently stored in the buffer
// (§3.4 calls these "order errors", distinct from out-of-order delivery).
// A buffer built with tracking detects this exactly, at amortised O(1)
// per push and pop: a FIFO keeps a min-queue beside its ring, a take-over
// buffer one beside U (L is sorted), and a heap always emits its minimum.
// The oracle exists only for measurement and is not consulted by any
// scheduling decision.
package pqueue

import (
	"fmt"

	"deadlineqos/internal/packet"
	"deadlineqos/internal/paged"
	"deadlineqos/internal/units"
)

// Entry is what a queue stores: a *packet.Packet at a switch port, a
// *packet.Staged record in a NIC injection queue. Stamps gives the
// deadline, wire size and value a discipline orders, accounts and sheds
// by; they must not change while the entry is stored.
type Entry interface {
	comparable
	Stamps() packet.Stamps
}

// Queue is a per-VC buffer of entries. Push never fails: the credit-based
// flow control upstream guarantees space, and a violation indicates a
// simulator bug, so implementations panic when pushed beyond capacity.
type Queue[E Entry] interface {
	// Push stores e. Panics if the buffer lacks capacity.
	Push(e E)
	// Head returns the entry the discipline would emit next, or the zero
	// E (nil). As required by the paper's flow-control rule (appendix),
	// callers must check credits against Head only — never against
	// another stored entry.
	Head() E
	// Pop removes and returns Head. Returns the zero E when empty.
	Pop() E
	// Len returns the number of stored entries.
	Len() int
	// Bytes returns the stored byte volume.
	Bytes() units.Size
	// Capacity returns the buffer size in bytes.
	Capacity() units.Size
	// Free returns the remaining byte space.
	Free() units.Size
	// Pushes returns how many entries were ever stored. Every stored
	// entry leaves through Pop (or, in a DropQueue, an eviction), so a
	// flow-controlled buffer has popped Pushes() − Len() entries.
	Pushes() uint64
	// OrderErrors returns how many dequeues emitted an entry whose
	// deadline exceeded the buffer's true minimum at that moment.
	// Always zero when the buffer was built without tracking.
	OrderErrors() uint64
	// Scan calls fn for every stored entry in unspecified order. It is
	// an oracle hook for tests and statistics.
	Scan(fn func(E))
	// SetObserver installs a per-entry event observer (nil to remove).
	// Observers are measurement-only and never influence the discipline.
	SetObserver(Observer[E])
}

// Buffer is the per-VC packet buffer of a switch port.
type Buffer = Queue[*packet.Packet]

// Observer receives per-entry buffer events. The tracing layer installs
// one on switch buffers when packet-lifecycle tracing is on; with no
// observer installed the notification sites cost a single nil check.
type Observer[E any] interface {
	// TakeOverEnqueued fires when a push diverts e to the take-over
	// queue U (TakeOver discipline only).
	TakeOverEnqueued(e E)
	// OrderError fires when a dequeue emits e although the buffer holds
	// a smaller deadline. Requires the buffer to be built with order
	// tracking; untracked buffers never call it.
	OrderError(e E)
}

// Discipline names a buffer type, used by configuration.
type Discipline uint8

// Buffer disciplines, one per architecture family.
const (
	FIFO Discipline = iota
	Heap
	TakeOver
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case FIFO:
		return "fifo"
	case Heap:
		return "heap"
	case TakeOver:
		return "takeover"
	default:
		return fmt.Sprintf("Discipline(%d)", uint8(d))
	}
}

// New builds a packet buffer of the given discipline with the given byte
// capacity. If trackOrderErrors is true the buffer counts order errors
// with the oracle the package comment describes.
func New(d Discipline, capacity units.Size, trackOrderErrors bool) Buffer {
	switch d {
	case FIFO:
		return NewFIFO[*packet.Packet](capacity, trackOrderErrors)
	case Heap:
		return NewHeap[*packet.Packet](capacity, trackOrderErrors)
	case TakeOver:
		return NewTakeOver(capacity, trackOrderErrors)
	default:
		panic("pqueue: unknown discipline")
	}
}

// --- order-error oracle ---------------------------------------------------

// minQueue is the order-error oracle of one FIFO ring: a monotonic deque
// of (deadline, arrival seq) whose front holds the smallest deadline the
// ring stores. A push first drops every back entry with a larger
// deadline, which cannot be the minimum again while the newcomer is
// stored; the front leaves with the ring entry that carries its seq.
// Every entry enters and leaves once, so both are amortised O(1), and
// the deadlines are the ones the entries were pushed with.
type minQueue struct {
	q ring[minEntry]
}

type minEntry struct {
	deadline units.Time
	seq      uint64
}

// newMinQueue returns the oracle of a tracked buffer, and nil for an
// untracked one, which so stays as small and as fast as without it.
func newMinQueue(track bool) *minQueue {
	if !track {
		return nil
	}
	return new(minQueue)
}

// push records the ring entry with arrival seq seq and deadline d.
func (m *minQueue) push(d units.Time, seq uint64) {
	for m.q.len() > 0 && m.q.back().deadline > d {
		m.q.popBack()
	}
	m.q.push(minEntry{d, seq})
}

// leave records that the ring's front, with arrival seq seq, left. The
// ring's newest entry is always in the deque, so a non-empty ring keeps
// a non-empty deque.
func (m *minQueue) leave(seq uint64) {
	if m.q.front().seq == seq {
		m.q.pop()
	}
}

// min returns the smallest stored deadline, or Infinity when empty.
func (m *minQueue) min() units.Time {
	if m.q.len() == 0 {
		return units.Infinity
	}
	return m.q.front().deadline
}

// --- common bookkeeping -------------------------------------------------

type base[E Entry] struct {
	capacity    units.Size
	bytes       units.Size
	pushes      uint64
	orderErrors uint64
	arrivalSeq  uint64
	obs         Observer[E]
}

func (b *base[E]) Bytes() units.Size         { return b.bytes }
func (b *base[E]) Capacity() units.Size      { return b.capacity }
func (b *base[E]) Free() units.Size          { return b.capacity - b.bytes }
func (b *base[E]) Pushes() uint64            { return b.pushes }
func (b *base[E]) OrderErrors() uint64       { return b.orderErrors }
func (b *base[E]) SetObserver(o Observer[E]) { b.obs = o }

// pushAccounting books the arrival of an entry of the given size.
func (b *base[E]) pushAccounting(size units.Size, kind string) {
	if b.bytes+size > b.capacity {
		panic(fmt.Sprintf("pqueue: %s overflow: %v stored + %v pushed > %v capacity (flow control violated)",
			kind, b.bytes, size, b.capacity))
	}
	b.bytes += size
	b.pushes++
}

// popAccounting books e's departure; s is e's stamps. least is the
// smallest deadline the buffer held just before the pop; a buffer without
// the oracle passes Infinity.
func (b *base[E]) popAccounting(e E, s packet.Stamps, least units.Time) {
	b.bytes -= s.Size
	if s.Deadline > least {
		b.orderErrors++
		if b.obs != nil {
			b.obs.OrderError(e)
		}
	}
}

// --- FIFO ---------------------------------------------------------------

// ring is a growable FIFO ring of queue entries: entries for Fifo, packets
// with their arrival seq for the take-over queues.
type ring[T any] struct {
	buf        []T
	head, size int
}

func (q *ring[T]) len() int { return q.size }

// front returns the oldest entry, or the zero T when empty.
func (q *ring[T]) front() T {
	if q.size == 0 {
		var zero T
		return zero
	}
	return q.buf[q.head]
}

// back returns the newest entry, or the zero T when empty.
func (q *ring[T]) back() T {
	if q.size == 0 {
		var zero T
		return zero
	}
	return q.buf[(q.head+q.size-1)%len(q.buf)]
}

func (q *ring[T]) push(x T) {
	if q.size == len(q.buf) {
		grown := make([]T, max(8, 2*len(q.buf)))
		for i := 0; i < q.size; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf = grown
		q.head = 0
	}
	q.buf[(q.head+q.size)%len(q.buf)] = x
	q.size++
}

// pop removes and returns the oldest entry, or the zero T when empty.
func (q *ring[T]) pop() T {
	var zero T
	if q.size == 0 {
		return zero
	}
	x := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return x
}

// popBack removes the newest entry of a non-empty ring.
func (q *ring[T]) popBack() {
	var zero T
	q.size--
	q.buf[(q.head+q.size)%len(q.buf)] = zero
}

func (q *ring[T]) scan(fn func(T)) {
	for i := 0; i < q.size; i++ {
		fn(q.buf[(q.head+i)%len(q.buf)])
	}
}

// Fifo is a first-in first-out buffer.
type Fifo[E Entry] struct {
	base[E]
	q    ring[E]
	mins *minQueue // the order-error oracle; nil when untracked
}

// NewFIFO returns an empty FIFO buffer of the given byte capacity.
func NewFIFO[E Entry](capacity units.Size, track bool) *Fifo[E] {
	return &Fifo[E]{base: base[E]{capacity: capacity}, mins: newMinQueue(track)}
}

// Push appends e.
func (f *Fifo[E]) Push(e E) {
	s := e.Stamps()
	f.pushAccounting(s.Size, "fifo")
	f.q.push(e)
	if f.mins != nil {
		f.mins.push(s.Deadline, f.arrivalSeq)
		f.arrivalSeq++
	}
}

// Head returns the oldest stored entry.
func (f *Fifo[E]) Head() E { return f.q.front() }

// Pop removes and returns the oldest stored entry.
func (f *Fifo[E]) Pop() E {
	if f.q.len() == 0 {
		var zero E
		return zero
	}
	least := units.Infinity
	if f.mins != nil {
		// The front is the oldest of the Len() entries stored.
		least = f.mins.min()
		f.mins.leave(f.arrivalSeq - uint64(f.q.len()))
	}
	e := f.q.pop()
	f.popAccounting(e, e.Stamps(), least)
	return e
}

// Len returns the number of stored entries.
func (f *Fifo[E]) Len() int { return f.q.len() }

// Scan visits stored entries front to back.
func (f *Fifo[E]) Scan(fn func(E)) { f.q.scan(fn) }

// --- Heap ("Ideal") -------------------------------------------------------

// heapEntry is a stored entry with its sort key: the deadline it was
// pushed with and its arrival order, the EDF tie-break. Keeping the
// deadline beside the pointer lets the heap sift without touching what
// the entries point at, in 24 bytes an entry.
type heapEntry[E Entry] struct {
	e        E
	deadline units.Time
	seq      uint64
}

// DeadlineHeap is the "Ideal" ordered buffer: Head is always the stored
// entry with the smallest deadline (ties broken by arrival order, making
// the discipline a stable EDF). NICs stage their deadline-aware injection
// queues in it.
//
// The binary heap is sifted by hand rather than through container/heap,
// whose interface boxes every entry into an any; up and down repeat
// container/heap's compare and swap sequence exactly, so the layout Scan
// walks is the one container/heap would build. The entries live in a
// paged array: a NIC heap grows for the whole of a saturated run, and
// growing it by whole pages never copies the entries it already holds.
type DeadlineHeap[E Entry] struct {
	base[E]
	h paged.Array[heapEntry[E]]
}

// NewHeap returns an empty ordered buffer of the given byte capacity. It
// needs no order-error oracle, tracked or not: every pop emits the stored
// minimum, so the heap never commits an order error.
func NewHeap[E Entry](capacity units.Size, _ bool) *DeadlineHeap[E] {
	return &DeadlineHeap[E]{base: base[E]{capacity: capacity}}
}

// before reports whether a sorts before b: earlier deadline, then
// earlier arrival.
func before[E Entry](a, b *heapEntry[E]) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.seq < b.seq
}

// up is container/heap's up. It keeps a pointer to the rising entry, so
// each level looks up one page slot.
func (d *DeadlineHeap[E]) up(j int) {
	pj := d.h.At(j)
	for j > 0 {
		i := (j - 1) / 2 // parent
		pi := d.h.At(i)
		if !before(pj, pi) {
			break
		}
		*pi, *pj = *pj, *pi
		j, pj = i, pi
	}
}

// down is container/heap's down over the first n entries. It keeps a
// pointer to the sinking entry, so each level looks up only the children.
func (d *DeadlineHeap[E]) down(i, n int) {
	pi := d.h.At(i)
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j, pj := j1, d.h.At(j1) // left child
		if j2 := j1 + 1; j2 < n {
			if p2 := d.h.At(j2); before(p2, pj) {
				j, pj = j2, p2 // right child
			}
		}
		if !before(pj, pi) {
			break
		}
		*pi, *pj = *pj, *pi
		i, pi = j, pj
	}
}

// Push stores e in deadline order.
func (d *DeadlineHeap[E]) Push(e E) {
	s := e.Stamps()
	d.pushAccounting(s.Size, "heap")
	d.h.Push(heapEntry[E]{e, s.Deadline, d.arrivalSeq})
	d.up(d.h.Len() - 1)
	d.arrivalSeq++
}

// Head returns the minimum-deadline stored entry.
func (d *DeadlineHeap[E]) Head() E {
	if d.h.Len() == 0 {
		var zero E
		return zero
	}
	return d.h.At(0).e
}

// Pop removes and returns the minimum-deadline stored entry.
func (d *DeadlineHeap[E]) Pop() E {
	n := d.h.Len() - 1
	if n < 0 {
		var zero E
		return zero
	}
	root, last := d.h.At(0), d.h.At(n)
	*root, *last = *last, *root
	d.down(0, n)
	top := d.h.Pop()
	s := top.e.Stamps()
	if s.Deadline != top.deadline {
		panic(fmt.Sprintf("pqueue: %v: deadline changed from %v while in a heap buffer",
			top.e, top.deadline))
	}
	d.popAccounting(top.e, s, top.deadline)
	return top.e
}

// Len returns the number of stored entries.
func (d *DeadlineHeap[E]) Len() int { return d.h.Len() }

// Scan visits stored entries in heap (unspecified) order.
func (d *DeadlineHeap[E]) Scan(fn func(E)) {
	for i := 0; i < d.h.Len(); i++ {
		fn(d.h.At(i).e)
	}
}

// --- TakeOver ("Advanced") -------------------------------------------------

// TakeOverQueue is the paper's two-FIFO buffer (§3.4, Figure 1). The
// "ordered" queue L holds packets whose deadlines arrived in non-decreasing
// order; late low-deadline packets divert to the "take-over" queue U where
// they can overtake L's high-deadline tail. Dequeue emits the smaller
// deadline of the two heads (FIFO arrival as tie-break), which the paper's
// appendix proves never reorders a single flow's packets.
type TakeOverQueue struct {
	base[*packet.Packet]
	l, u     ring[seqEntry]
	umin     *minQueue // the order-error oracle over U; nil when untracked
	takeOver uint64    // packets diverted to U, a direct order-pressure measure
}

// seqEntry is a stored packet with its arrival order, the tie-break
// between equal deadlines.
type seqEntry struct {
	p   *packet.Packet
	seq uint64
}

// NewTakeOver returns an empty two-queue buffer of the given byte capacity.
// L and U share the capacity dynamically, as in the paper ("the two queues
// can dynamically take all the memory allowed for the VC").
func NewTakeOver(capacity units.Size, track bool) *TakeOverQueue {
	return &TakeOverQueue{base: base[*packet.Packet]{capacity: capacity}, umin: newMinQueue(track)}
}

// Push enqueues p per the paper's Definition 1: into L when both queues are
// empty or when D(p) ≥ D(L's tail); into U otherwise.
func (t *TakeOverQueue) Push(p *packet.Packet) {
	t.pushAccounting(p.Size, "takeover")
	e := seqEntry{p, t.arrivalSeq}
	t.arrivalSeq++
	if tail := t.l.back(); tail.p == nil || p.Deadline >= tail.p.Deadline {
		// Lemma 1 guarantees L is empty only when U is too, so an empty
		// L tail always means "both empty → store in L".
		t.l.push(e)
		return
	}
	t.u.push(e)
	if t.umin != nil {
		t.umin.push(p.Deadline, e.seq)
	}
	t.takeOver++
	if t.obs != nil {
		t.obs.TakeOverEnqueued(p)
	}
}

// next returns the queue whose head is the dequeue candidate per
// Definition 2: the smaller-deadline head of L and U (earlier arrival wins
// ties). It returns nil when both are empty.
func (t *TakeOverQueue) next() *ring[seqEntry] {
	lh, uh := t.l.front(), t.u.front()
	switch {
	case lh.p == nil && uh.p == nil:
		return nil
	case lh.p == nil:
		// Violates Lemma 1; reaching this means the enqueue/dequeue
		// algorithms were not followed.
		panic("pqueue: take-over queue non-empty while ordered queue empty (Lemma 1 violated)")
	case uh.p == nil:
		return &t.l
	case lh.p.Deadline < uh.p.Deadline:
		return &t.l
	case uh.p.Deadline < lh.p.Deadline:
		return &t.u
	case lh.seq < uh.seq:
		return &t.l
	default:
		return &t.u
	}
}

// Head returns the dequeue candidate.
func (t *TakeOverQueue) Head() *packet.Packet {
	q := t.next()
	if q == nil {
		return nil
	}
	return q.front().p
}

// Pop removes and returns the dequeue candidate.
func (t *TakeOverQueue) Pop() *packet.Packet {
	q := t.next()
	if q == nil {
		return nil
	}
	least := units.Infinity
	if t.umin != nil {
		// L takes only deadlines ≥ its tail and pops only at its head, so
		// its head is its minimum, and the emitted head never exceeds L's:
		// the pop is an order error exactly when it exceeds U's minimum.
		least = t.umin.min()
		if q == &t.u {
			t.umin.leave(q.front().seq)
		}
	}
	p := q.pop().p
	t.popAccounting(p, p.Stamps(), least)
	return p
}

// Len returns the number of stored packets.
func (t *TakeOverQueue) Len() int { return t.l.len() + t.u.len() }

// Scan visits L front-to-back, then U front-to-back.
func (t *TakeOverQueue) Scan(fn func(*packet.Packet)) {
	visit := func(e seqEntry) { fn(e.p) }
	t.l.scan(visit)
	t.u.scan(visit)
}

// TakeOvers returns how many pushed packets were diverted to the take-over
// queue, i.e. arrived with a deadline below the ordered queue's tail.
func (t *TakeOverQueue) TakeOvers() uint64 { return t.takeOver }

// LLen and ULen expose the two internal queue lengths for tests and the
// take-over example.
func (t *TakeOverQueue) LLen() int { return t.l.len() }

// ULen returns the take-over queue length.
func (t *TakeOverQueue) ULen() int { return t.u.len() }
