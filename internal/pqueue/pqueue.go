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
// All disciplines implement Buffer, so switch ports are built independently
// of the architecture being simulated.
//
// Order-error accounting: a dequeue commits an order error when the packet
// it emits does not have the minimum deadline currently stored in the buffer
// (§3.4 calls these "order errors", distinct from out-of-order delivery).
// Buffers optionally carry an oracle min-tracker that detects this; it
// exists only for measurement and is not consulted by any scheduling
// decision.
package pqueue

import (
	"fmt"

	"deadlineqos/internal/metrics"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/units"
)

// Metrics bundles the buffer-level instruments of the metrics plane.
// Instrument methods are nil-safe, so the zero value disables recording
// at the cost of one nil check inside each call.
type Metrics struct {
	Enqueued    *metrics.Counter // packets pushed
	Dequeued    *metrics.Counter // packets popped
	OrderErrors *metrics.Counter // dequeues that violated deadline order
	TakeOvers   *metrics.Counter // pushes diverted to the take-over queue
}

// Buffer is a per-VC packet buffer of a switch or host port. Push never
// fails: the credit-based flow control upstream guarantees space, and a
// violation indicates a simulator bug, so implementations panic when pushed
// beyond capacity.
type Buffer interface {
	// Push stores a packet. Panics if the buffer lacks capacity.
	Push(p *packet.Packet)
	// Head returns the packet the discipline would emit next, or nil.
	// As required by the paper's flow-control rule (appendix), callers
	// must check credits against Head only — never against another
	// stored packet.
	Head() *packet.Packet
	// Pop removes and returns Head. Returns nil when empty.
	Pop() *packet.Packet
	// Len returns the number of stored packets.
	Len() int
	// Bytes returns the stored byte volume.
	Bytes() units.Size
	// Capacity returns the buffer size in bytes.
	Capacity() units.Size
	// Free returns the remaining byte space.
	Free() units.Size
	// OrderErrors returns how many dequeues emitted a packet whose
	// deadline exceeded the buffer's true minimum at that moment.
	// Always zero when the buffer was built without tracking.
	OrderErrors() uint64
	// Scan calls fn for every stored packet in unspecified order. It is
	// an oracle hook for tests and statistics.
	Scan(fn func(*packet.Packet))
	// SetObserver installs a per-packet event observer (nil to remove).
	// Observers are measurement-only and never influence the discipline.
	SetObserver(Observer)
	// SetMetrics installs the buffer's metric instruments (the zero
	// Metrics removes them). Measurement-only, like observers.
	SetMetrics(Metrics)
}

// Observer receives per-packet buffer events. The tracing layer installs
// one when packet-lifecycle tracing is on; with no observer installed the
// notification sites cost a single nil check.
type Observer interface {
	// TakeOverEnqueued fires when a push diverts p to the take-over
	// queue U (TakeOver discipline only).
	TakeOverEnqueued(p *packet.Packet)
	// OrderError fires when a dequeue emits p although the buffer holds
	// a smaller deadline. Requires the buffer to be built with order
	// tracking; untracked buffers never call it.
	OrderError(p *packet.Packet)
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

// New builds a buffer of the given discipline with the given byte capacity.
// If trackOrderErrors is true the buffer carries the measurement oracle
// (slightly slower Push/Pop).
func New(d Discipline, capacity units.Size, trackOrderErrors bool) Buffer {
	switch d {
	case FIFO:
		return NewFIFO(capacity, trackOrderErrors)
	case Heap:
		return NewHeap(capacity, trackOrderErrors)
	case TakeOver:
		return NewTakeOver(capacity, trackOrderErrors)
	default:
		panic("pqueue: unknown discipline")
	}
}

// --- oracle min-tracker ------------------------------------------------

// minTracker maintains the true minimum deadline of a packet multiset using
// a lazy-deletion heap. It is measurement-only.
//
// The binary heap is sifted by hand rather than through container/heap,
// which would box an entry into an any on every push and pop; up and down
// repeat container/heap's compare and swap sequence exactly, so the heap
// holds the layout container/heap would build.
type minTracker struct {
	entries []minEntry
	dead    map[uint64]int // packet id -> pending deletions
}

type minEntry struct {
	deadline units.Time
	id       uint64
}

func newMinTracker() *minTracker {
	return &minTracker{dead: make(map[uint64]int)}
}

// up is container/heap's up.
func (t *minTracker) up(j int) {
	h := t.entries
	for {
		i := (j - 1) / 2 // parent
		if i == j || h[j].deadline >= h[i].deadline {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down is container/heap's down over the first n entries.
func (t *minTracker) down(i, n int) {
	h := t.entries
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].deadline < h[j1].deadline {
			j = j2 // right child
		}
		if h[j].deadline >= h[i].deadline {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (t *minTracker) add(p *packet.Packet) {
	t.entries = append(t.entries, minEntry{p.Deadline, p.ID})
	t.up(len(t.entries) - 1)
}

func (t *minTracker) remove(p *packet.Packet) {
	t.dead[p.ID]++
	t.compact()
}

// compact pops dead entries off the top of the heap.
func (t *minTracker) compact() {
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
		last := len(t.entries) - 1
		t.entries[0], t.entries[last] = t.entries[last], t.entries[0]
		t.down(0, last)
		t.entries = t.entries[:last]
	}
}

// min returns the smallest stored deadline, or Infinity when empty.
func (t *minTracker) min() units.Time {
	t.compact()
	if len(t.entries) == 0 {
		return units.Infinity
	}
	return t.entries[0].deadline
}

// --- common bookkeeping -------------------------------------------------

type base struct {
	capacity    units.Size
	bytes       units.Size
	orderErrors uint64
	tracker     *minTracker
	arrivalSeq  uint64
	obs         Observer
	mtr         Metrics
}

func (b *base) Bytes() units.Size      { return b.bytes }
func (b *base) Capacity() units.Size   { return b.capacity }
func (b *base) Free() units.Size       { return b.capacity - b.bytes }
func (b *base) OrderErrors() uint64    { return b.orderErrors }
func (b *base) SetObserver(o Observer) { b.obs = o }
func (b *base) SetMetrics(m Metrics)   { b.mtr = m }

func (b *base) pushAccounting(p *packet.Packet, kind string) {
	if b.bytes+p.Size > b.capacity {
		panic(fmt.Sprintf("pqueue: %s overflow: %v stored + %v pushed > %v capacity (flow control violated)",
			kind, b.bytes, p.Size, b.capacity))
	}
	b.bytes += p.Size
	b.mtr.Enqueued.Inc()
	if b.tracker != nil {
		b.tracker.add(p)
	}
}

func (b *base) popAccounting(p *packet.Packet) {
	b.bytes -= p.Size
	b.mtr.Dequeued.Inc()
	if b.tracker != nil {
		if p.Deadline > b.tracker.min() {
			b.orderErrors++
			b.mtr.OrderErrors.Inc()
			if b.obs != nil {
				b.obs.OrderError(p)
			}
		}
		b.tracker.remove(p)
	}
}

// --- FIFO ---------------------------------------------------------------

// ring is a growable FIFO ring of queue entries: packet pointers for Fifo,
// packets with their arrival seq for the take-over queues.
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

func (q *ring[T]) scan(fn func(T)) {
	for i := 0; i < q.size; i++ {
		fn(q.buf[(q.head+i)%len(q.buf)])
	}
}

// Fifo is a first-in first-out packet buffer.
type Fifo struct {
	base
	q ring[*packet.Packet]
}

// NewFIFO returns an empty FIFO buffer of the given byte capacity.
func NewFIFO(capacity units.Size, track bool) *Fifo {
	f := &Fifo{base: base{capacity: capacity}}
	if track {
		f.tracker = newMinTracker()
	}
	return f
}

// Push appends p.
func (f *Fifo) Push(p *packet.Packet) {
	f.pushAccounting(p, "fifo")
	f.q.push(p)
}

// Head returns the oldest stored packet.
func (f *Fifo) Head() *packet.Packet { return f.q.front() }

// Pop removes and returns the oldest stored packet.
func (f *Fifo) Pop() *packet.Packet {
	p := f.q.pop()
	if p != nil {
		f.popAccounting(p)
	}
	return p
}

// Len returns the number of stored packets.
func (f *Fifo) Len() int { return f.q.len() }

// Scan visits stored packets front to back.
func (f *Fifo) Scan(fn func(*packet.Packet)) { f.q.scan(fn) }

// --- Heap ("Ideal") -------------------------------------------------------

// heapEntry is a stored packet with its sort key: the deadline it was
// pushed with and its arrival order, the EDF tie-break. Keeping the
// deadline beside the pointer lets the heap sift without touching packets.
type heapEntry struct {
	p        *packet.Packet
	deadline units.Time
	seq      uint64
}

// DeadlineHeap is the "Ideal" ordered buffer: Head is always the stored
// packet with the smallest deadline (ties broken by arrival order, making
// the discipline a stable EDF).
//
// The binary heap is sifted by hand rather than through container/heap,
// whose interface boxes every entry into an any; up and down repeat
// container/heap's compare and swap sequence exactly, so the layout Scan
// walks is the one container/heap would build.
type DeadlineHeap struct {
	base
	h []heapEntry
}

// NewHeap returns an empty ordered buffer of the given byte capacity.
func NewHeap(capacity units.Size, track bool) *DeadlineHeap {
	d := &DeadlineHeap{base: base{capacity: capacity}}
	if track {
		d.tracker = newMinTracker()
	}
	return d
}

func (d *DeadlineHeap) less(i, j int) bool {
	a, b := &d.h[i], &d.h[j]
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.seq < b.seq
}

// up is container/heap's up.
func (d *DeadlineHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !d.less(j, i) {
			break
		}
		d.h[i], d.h[j] = d.h[j], d.h[i]
		j = i
	}
}

// down is container/heap's down over the first n entries.
func (d *DeadlineHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && d.less(j2, j1) {
			j = j2 // right child
		}
		if !d.less(j, i) {
			break
		}
		d.h[i], d.h[j] = d.h[j], d.h[i]
		i = j
	}
}

// Push stores p in deadline order.
func (d *DeadlineHeap) Push(p *packet.Packet) {
	d.pushAccounting(p, "heap")
	d.h = append(d.h, heapEntry{p, p.Deadline, d.arrivalSeq})
	d.up(len(d.h) - 1)
	d.arrivalSeq++
}

// Head returns the minimum-deadline stored packet.
func (d *DeadlineHeap) Head() *packet.Packet {
	if len(d.h) == 0 {
		return nil
	}
	return d.h[0].p
}

// Pop removes and returns the minimum-deadline stored packet.
func (d *DeadlineHeap) Pop() *packet.Packet {
	n := len(d.h) - 1
	if n < 0 {
		return nil
	}
	d.h[0], d.h[n] = d.h[n], d.h[0]
	d.down(0, n)
	e := d.h[n]
	d.h[n] = heapEntry{}
	d.h = d.h[:n]
	if e.p.Deadline != e.deadline {
		panic(fmt.Sprintf("pqueue: packet %d deadline changed from %v to %v while in a heap buffer",
			e.p.ID, e.deadline, e.p.Deadline))
	}
	d.popAccounting(e.p)
	return e.p
}

// Len returns the number of stored packets.
func (d *DeadlineHeap) Len() int { return len(d.h) }

// Scan visits stored packets in heap (unspecified) order.
func (d *DeadlineHeap) Scan(fn func(*packet.Packet)) {
	for _, e := range d.h {
		fn(e.p)
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
	base
	l, u     ring[seqEntry]
	takeOver uint64 // packets diverted to U, a direct order-pressure measure
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
	t := &TakeOverQueue{base: base{capacity: capacity}}
	if track {
		t.tracker = newMinTracker()
	}
	return t
}

// Push enqueues p per the paper's Definition 1: into L when both queues are
// empty or when D(p) ≥ D(L's tail); into U otherwise.
func (t *TakeOverQueue) Push(p *packet.Packet) {
	t.pushAccounting(p, "takeover")
	e := seqEntry{p, t.arrivalSeq}
	t.arrivalSeq++
	if tail := t.l.back(); tail.p == nil || p.Deadline >= tail.p.Deadline {
		// Lemma 1 guarantees L is empty only when U is too, so an empty
		// L tail always means "both empty → store in L".
		t.l.push(e)
		return
	}
	t.u.push(e)
	t.takeOver++
	t.mtr.TakeOvers.Inc()
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
	p := q.pop().p
	t.popAccounting(p)
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
