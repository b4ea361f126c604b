package pqueue

import (
	"deadlineqos/internal/packet"
	"deadlineqos/internal/units"
)

// Evictor is the optional Buffer extension implemented by bounded queues
// that may discard stored (or arriving) packets instead of panicking on
// overflow. The NIC discovers it by type assertion and installs the
// eviction callback so dropped packets stay accounted in the conservation
// invariant and statistics.
type Evictor interface {
	// SetOnEvict installs the callback invoked for every packet the queue
	// discards, after the packet has been removed from the queue (nil to
	// remove). The callback must not re-enter the queue.
	SetOnEvict(fn func(*packet.Packet))
	// Evicted returns how many packets and bytes the queue has discarded.
	Evicted() (packets uint64, bytes units.Size)
}

// DropQueue is a bounded packet buffer for best-effort traffic that sheds
// load instead of relying on upstream flow control: when a push would
// exceed the byte capacity it discards packets until the arrival fits.
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
type DropQueue struct {
	base
	entries []seqEntry // seq: FIFO position and EDF/eviction tie-break
	edf     bool
	tail    bool
	evicted uint64
	evBytes units.Size
	onEvict func(*packet.Packet)
}

// NewDropQueue returns an empty bounded queue of the given byte capacity.
// edf selects stable-EDF dequeue order, otherwise FIFO; tail selects the
// tail-drop shedding rule, otherwise value-density eviction.
func NewDropQueue(capacity units.Size, tail, edf bool) *DropQueue {
	return &DropQueue{base: base{capacity: capacity}, edf: edf, tail: tail}
}

// SetOnEvict installs the eviction callback.
func (d *DropQueue) SetOnEvict(fn func(*packet.Packet)) { d.onEvict = fn }

// Evicted returns the discarded packet and byte totals.
func (d *DropQueue) Evicted() (uint64, units.Size) { return d.evicted, d.evBytes }

// denserEq reports whether packet a has value density (Value/Size) greater
// than or equal to b's, by integer cross-multiplication so the comparison
// is exact and shard-independent.
func denserEq(a, b *packet.Packet) bool {
	return a.Value*int64(b.Size) >= b.Value*int64(a.Size)
}

// Push stores p, discarding packets per the shedding rule if it does not
// fit. Unlike the flow-controlled disciplines it never panics.
func (d *DropQueue) Push(p *packet.Packet) {
	for d.bytes+p.Size > d.capacity {
		if d.tail || len(d.entries) == 0 {
			// Tail drop, or an arrival larger than the whole queue.
			d.drop(p)
			return
		}
		// Lowest density among stored packets; ties keep the older one.
		victim := 0
		for i := 1; i < len(d.entries); i++ {
			if !denserEq(d.entries[i].p, d.entries[victim].p) {
				victim = i
			}
		}
		if denserEq(d.entries[victim].p, p) {
			// The arrival itself is the least dense (ties count against
			// it, the youngest): shed it, keep the queue.
			d.drop(p)
			return
		}
		d.removeAt(victim, true)
	}
	d.pushAccounting(p, "drop")
	d.entries = append(d.entries, seqEntry{p, d.arrivalSeq})
	d.arrivalSeq++
}

// drop sheds an arriving packet that was never stored.
func (d *DropQueue) drop(p *packet.Packet) {
	d.evicted++
	d.evBytes += p.Size
	if d.onEvict != nil {
		d.onEvict(p)
	}
}

// removeAt deletes entry i preserving arrival order. With evict set the
// packet counts as discarded and the callback fires.
func (d *DropQueue) removeAt(i int, evict bool) *packet.Packet {
	p := d.entries[i].p
	copy(d.entries[i:], d.entries[i+1:])
	d.entries[len(d.entries)-1] = seqEntry{}
	d.entries = d.entries[:len(d.entries)-1]
	if evict {
		d.bytes -= p.Size
		if d.tracker != nil {
			d.tracker.remove(p)
		}
		d.evicted++
		d.evBytes += p.Size
		if d.onEvict != nil {
			d.onEvict(p)
		}
	}
	return p
}

// headIndex returns the index Head/Pop would emit, or -1 when empty.
func (d *DropQueue) headIndex() int {
	if len(d.entries) == 0 {
		return -1
	}
	if !d.edf {
		return 0
	}
	best := 0
	for i := 1; i < len(d.entries); i++ {
		e, b := d.entries[i], d.entries[best]
		if e.p.Deadline < b.p.Deadline || (e.p.Deadline == b.p.Deadline && e.seq < b.seq) {
			best = i
		}
	}
	return best
}

// Head returns the next packet in dequeue order, or nil.
func (d *DropQueue) Head() *packet.Packet {
	i := d.headIndex()
	if i < 0 {
		return nil
	}
	return d.entries[i].p
}

// Pop removes and returns Head, or nil when empty.
func (d *DropQueue) Pop() *packet.Packet {
	i := d.headIndex()
	if i < 0 {
		return nil
	}
	p := d.removeAt(i, false)
	d.popAccounting(p)
	return p
}

// Len returns the number of stored packets.
func (d *DropQueue) Len() int { return len(d.entries) }

// Scan visits stored packets in arrival order.
func (d *DropQueue) Scan(fn func(*packet.Packet)) {
	for _, e := range d.entries {
		fn(e.p)
	}
}
