package pqueue

import (
	"deadlineqos/internal/packet"
	"deadlineqos/internal/units"
)

// Evictor is the optional Queue extension implemented by bounded queues
// that may discard stored (or arriving) entries instead of panicking on
// overflow. The NIC discovers it by type assertion and installs the
// eviction callback so dropped packets stay accounted in the conservation
// invariant and statistics.
type Evictor[E Entry] interface {
	// SetOnEvict installs the callback invoked for every entry the queue
	// discards, after the entry has been removed from the queue (nil to
	// remove). The callback must not re-enter the queue.
	SetOnEvict(fn func(E))
	// Evicted returns how many entries and bytes the queue has discarded.
	Evicted() (entries uint64, bytes units.Size)
}

// DropQueue is a bounded buffer for best-effort traffic that sheds load
// instead of relying on upstream flow control: when a push would exceed
// the byte capacity it discards entries until the arrival fits. NICs
// bound their best-effort injection queues with it (policy.ValueDrop).
//
// Two shedding rules are supported:
//
//   - value mode (tail=false): discard the packet with the lowest value
//     density (Value/Size) among the stored packets and the arrival, the
//     greedy bounded-queue rule from the weighted online packet-dropping
//     literature (Fei Li, arXiv 0807.2694). Ties evict the youngest
//     arrival, so an equal-value newcomer never displaces a stored packet.
//   - tail mode (tail=true): discard the arriving packet, the classic
//     tail-drop baseline.
//
// Head/Pop follow either stable EDF order (deadline, then arrival — for
// the deadline-aware architectures) or FIFO order, chosen at build time.
// The implementation is a flat slice with O(n) selection scans: the whole
// point of the queue is that n stays small (capacity / packet size), and
// a flat slice keeps eviction — which needs arbitrary removal, something
// the heap and take-over disciplines cannot do — trivially deterministic.
type DropQueue[E Entry] struct {
	base[E]
	entries []dropEntry[E]
	edf     bool
	tail    bool
	evicted uint64
	evBytes units.Size
	onEvict func(E)
}

// dropEntry is a stored entry with its arrival order: the FIFO position
// and the EDF and eviction tie-break.
type dropEntry[E Entry] struct {
	e   E
	seq uint64
}

// NewDropQueue returns an empty bounded queue of the given byte capacity.
// edf selects stable-EDF dequeue order, otherwise FIFO; tail selects the
// tail-drop shedding rule, otherwise value-density eviction.
func NewDropQueue[E Entry](capacity units.Size, tail, edf bool) *DropQueue[E] {
	return &DropQueue[E]{base: base[E]{capacity: capacity}, edf: edf, tail: tail}
}

// SetOnEvict installs the eviction callback.
func (d *DropQueue[E]) SetOnEvict(fn func(E)) { d.onEvict = fn }

// Evicted returns the discarded entry and byte totals.
func (d *DropQueue[E]) Evicted() (uint64, units.Size) { return d.evicted, d.evBytes }

// denserEq reports whether stamps a have value density (Value/Size)
// greater than or equal to b's, by integer cross-multiplication so the
// comparison is exact and shard-independent.
func denserEq(a, b packet.Stamps) bool {
	return a.Value*int64(b.Size) >= b.Value*int64(a.Size)
}

// Push stores e, discarding entries per the shedding rule if it does not
// fit. Unlike the flow-controlled disciplines it never panics.
func (d *DropQueue[E]) Push(e E) {
	s := e.Stamps()
	for d.bytes+s.Size > d.capacity {
		if d.tail || len(d.entries) == 0 {
			// Tail drop, or an arrival larger than the whole queue.
			d.drop(e, s.Size)
			return
		}
		// Lowest density among stored entries; ties keep the older one.
		victim, least := 0, d.entries[0].e.Stamps()
		for i := 1; i < len(d.entries); i++ {
			if si := d.entries[i].e.Stamps(); !denserEq(si, least) {
				victim, least = i, si
			}
		}
		if denserEq(least, s) {
			// The arrival itself is the least dense (ties count against
			// it, the youngest): shed it, keep the queue.
			d.drop(e, s.Size)
			return
		}
		d.removeAt(victim, true)
	}
	d.pushAccounting(s.Size, "drop")
	d.entries = append(d.entries, dropEntry[E]{e, d.arrivalSeq})
	d.arrivalSeq++
}

// drop sheds an arriving entry of the given size that was never stored.
func (d *DropQueue[E]) drop(e E, size units.Size) {
	d.evicted++
	d.evBytes += size
	if d.onEvict != nil {
		d.onEvict(e)
	}
}

// removeAt deletes entry i preserving arrival order. With evict set the
// entry counts as discarded and the callback fires.
func (d *DropQueue[E]) removeAt(i int, evict bool) E {
	e := d.entries[i].e
	copy(d.entries[i:], d.entries[i+1:])
	d.entries[len(d.entries)-1] = dropEntry[E]{}
	d.entries = d.entries[:len(d.entries)-1]
	if evict {
		size := e.Stamps().Size
		d.bytes -= size
		d.evicted++
		d.evBytes += size
		if d.onEvict != nil {
			d.onEvict(e)
		}
	}
	return e
}

// headIndex returns the index Head/Pop would emit, or -1 when empty.
func (d *DropQueue[E]) headIndex() int {
	if len(d.entries) == 0 {
		return -1
	}
	if !d.edf {
		return 0
	}
	best, bd := 0, d.entries[0].e.Stamps().Deadline
	for i := 1; i < len(d.entries); i++ {
		// Entries sit in arrival order, so a later one wins only on a
		// strictly smaller deadline.
		if dl := d.entries[i].e.Stamps().Deadline; dl < bd {
			best, bd = i, dl
		}
	}
	return best
}

// Head returns the next entry in dequeue order, or the zero E.
func (d *DropQueue[E]) Head() E {
	i := d.headIndex()
	if i < 0 {
		var zero E
		return zero
	}
	return d.entries[i].e
}

// Pop removes and returns Head, or the zero E when empty.
func (d *DropQueue[E]) Pop() E {
	i := d.headIndex()
	if i < 0 {
		var zero E
		return zero
	}
	e := d.removeAt(i, false)
	d.popAccounting(e, e.Stamps(), units.Infinity)
	return e
}

// Len returns the number of stored entries.
func (d *DropQueue[E]) Len() int { return len(d.entries) }

// Scan visits stored entries in arrival order.
func (d *DropQueue[E]) Scan(fn func(E)) {
	for _, e := range d.entries {
		fn(e.e)
	}
}
