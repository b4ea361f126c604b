// Package sim implements the discrete-event simulation engine that drives
// the network model.
//
// The engine maintains a clock in cycles (see internal/units) and a pending
// event set ordered by (firing time, channel, scheduling order): same-cycle
// events on the same channel fire in scheduling order (FIFO tie-break),
// which makes runs fully deterministic — the same configuration and seed
// always produce the identical event trace. One Engine runs on a single
// goroutine; a large simulation can span cores by partitioning the model
// across several engines with internal/parsim, whose channel-keyed merge
// rule reproduces the sequential order exactly.
//
// Events are typed. Post schedules a Payload: a Handler to fire on, a Kind,
// a packet pointer and two integer arguments. Per-packet model code (link
// serialisation, arrivals and credit returns, crossbar transfers, NIC
// wake-ups and timers, traffic emission, parsim relays) posts its own
// receiver with the kind and arguments it needs, so scheduling a packet hop
// allocates nothing. At, After and AtChannel are thin wrappers that post a
// Func, a func-typed Handler: a func value is one pointer, so its
// conversion to Handler does not allocate either. Every event, typed or
// not, fires through the same Handler.Fire call.
//
// Implementation notes: simulations execute tens of millions of events, and
// almost all of them are due within a few microseconds of the clock (credit
// returns, link and crossbar completions). The pending set is therefore a
// hashed timing wheel (Varghese and Lauck, SOSP '87) of wheelSpan one-cycle
// slots for events due soon, found through an occupancy bitmap, plus a
// hand-rolled 4-ary heap for events due later (traffic emission, timers).
// Each slot keeps its events in (channel, seq) order, and the next event is
// the smaller of the wheel's and the heap's heads under the full (time,
// channel, seq) key, so the split changes the cost of scheduling, never the
// order. Fired Event records are recycled through a free list to keep the
// scheduler allocation-free in steady state. Time-performance-sensitive code
// lives here; everything else in the simulator favours clarity.
package sim

import (
	"fmt"
	"math/bits"

	"deadlineqos/internal/packet"
	"deadlineqos/internal/units"
)

// Kind labels what a typed event does. A Handler that posts several kinds
// of event dispatches on it; the engine itself only carries it.
type Kind uint8

// Event kinds. KindFunc marks the plain funcs At, After and AtChannel post;
// the others name the per-packet and per-message events of the model.
const (
	KindFunc       Kind = iota
	KindLinkFree        // a link finished serialising a packet
	KindLinkArrive      // a packet's last byte reached the far end of a link
	KindCredit          // a credit return reached the sending link
	KindXbarFinish      // a crossbar transfer completed
	KindWake            // a NIC eligibility wake-up
	KindRetx            // a retransmission timeout
	KindAck             // a receiver report reached the source NIC
	KindDeliver         // a packet relayed from another shard arrives
	KindEmit            // a traffic source or session client emits
)

// Handler receives typed events: Fire runs at the event's time with the
// kind, packet and arguments the event was posted with.
type Handler interface {
	Fire(kind Kind, p *packet.Packet, a, b uint64)
}

// Payload is what one typed event carries. The meaning of Pkt, A and B is
// the Handler's, per Kind.
type Payload struct {
	H    Handler
	Kind Kind
	Pkt  *packet.Packet
	A, B uint64
}

// Func adapts a plain func to Handler. A func value is a single pointer, so
// converting a Func to Handler does not allocate.
type Func func()

// Fire calls f.
func (f Func) Fire(Kind, *packet.Packet, uint64, uint64) { f() }

// Event is a scheduled Payload. Events are owned and recycled by the
// Engine; user code refers to them through Handles.
type Event struct {
	at         units.Time
	seq        uint64 // FIFO tie-break among same-cycle, same-channel events
	ch         uint32 // ordering channel; 0 for plain At/After events
	gen        uint32 // incremented on recycle, invalidating stale Handles
	idx        int    // far-heap index, inWheel in a wheel slot, notQueued otherwise
	prev, next *Event // neighbours in the event's wheel slot
	pl         Payload
}

// Event.idx values other than a far-heap index.
const (
	notQueued = -1 // fired or cancelled
	inWheel   = -2 // held in a wheel slot
)

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is a valid "no event" handle.
type Handle struct {
	ev  *Event
	gen uint32
}

// Pending reports whether the handle refers to an event that has not yet
// fired or been cancelled.
func (h Handle) Pending() bool { return h.ev != nil && h.ev.gen == h.gen && h.ev.idx != notQueued }

// The timing wheel has wheelSpan one-cycle slots. An event due less than
// wheelSpan cycles after the engine's base goes to slot at&wheelMask;
// later events wait in the far heap. 4096 cycles (4.1 µs at the reference
// bandwidth) covers the link, credit and crossbar delays of an MTU packet
// on a link at full rate: 98% of the posts of the full-load 16-host Clos.
const (
	wheelSpan = 4096
	wheelMask = wheelSpan - 1
)

// slot is one wheel slot: a doubly linked list of events due at the same
// cycle, kept in (channel, seq) order.
type slot struct{ head, tail *Event }

// Engine is a discrete-event simulator core. It is not safe for concurrent
// use; each simulation run owns one Engine on one goroutine.
type Engine struct {
	now units.Time
	// base never decreases and bounds the wheel from below: it is the
	// latest time an event fired at, or a horizon Run advanced the clock
	// to with nothing due before it. Only events due in
	// [base, base+wheelSpan) enter the wheel, so each slot holds a single
	// cycle and the first occupied slot at or after base's, wrapping,
	// holds the earliest of them.
	base       units.Time
	slots      [wheelSpan]slot
	occ        [wheelSpan / 64]uint64 // bit i set when slots[i] is non-empty
	wheelLen   int
	far        []*Event // 4-ary heap of events due beyond the wheel when posted
	free       []*Event
	nextSeq    uint64
	stopped    bool
	fired      uint64
	maxPending int
}

// New returns an Engine with the clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Fired returns the number of events executed so far. It is useful for
// performance accounting in the benchmark harness.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return e.wheelLen + len(e.far) }

// MaxPending returns the high-water mark of the pending event set over the
// engine's lifetime — the profiling proxy for scheduler memory pressure.
func (e *Engine) MaxPending() int { return e.maxPending }

// less orders events by (time, channel, seq). The channel component exists
// for the parallel engine (internal/parsim): events that may cross a shard
// boundary — link arrivals, credit returns, receiver reports — are keyed by
// a globally unique channel id, so their position among same-cycle events
// is a pure function of (time, channel) rather than of the engine-local seq
// counter. Within one channel, and among all channel-0 events, the seq FIFO
// tie-break applies as before. A sequential run and a sharded run therefore
// execute the exact same total order.
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.ch != b.ch {
		return a.ch < b.ch
	}
	return a.seq < b.seq
}

// --- timing wheel ----------------------------------------------------------

// link appends ev to its wheel slot. ev carries the engine's newest seq,
// so it goes after every slot event on a channel at or below its own.
func (e *Engine) link(ev *Event) {
	i := int(ev.at & wheelMask)
	s := &e.slots[i]
	p := s.tail
	for p != nil && p.ch > ev.ch {
		p = p.prev
	}
	ev.prev = p
	if p == nil {
		ev.next = s.head
		s.head = ev
	} else {
		ev.next = p.next
		p.next = ev
	}
	if ev.next == nil {
		s.tail = ev
	} else {
		ev.next.prev = ev
	}
	ev.idx = inWheel
	e.occ[i>>6] |= 1 << (i & 63)
	e.wheelLen++
}

// unlink removes ev from its wheel slot.
func (e *Engine) unlink(ev *Event) {
	i := int(ev.at & wheelMask)
	s := &e.slots[i]
	if ev.prev == nil {
		s.head = ev.next
	} else {
		ev.prev.next = ev.next
	}
	if ev.next == nil {
		s.tail = ev.prev
	} else {
		ev.next.prev = ev.prev
	}
	ev.prev, ev.next = nil, nil
	if s.head == nil {
		e.occ[i>>6] &^= 1 << (i & 63)
	}
	ev.idx = notQueued
	e.wheelLen--
}

// firstSlot returns the first occupied slot at or after base's, wrapping
// round: the slot of the earliest wheel event. The wheel must be non-empty.
func (e *Engine) firstSlot() int {
	i := int(e.base & wheelMask)
	w := i >> 6
	if b := e.occ[w] >> (i & 63); b != 0 {
		return i + bits.TrailingZeros64(b)
	}
	// The bits of word w at or above i are clear, so meeting w again at
	// the end of the loop finds only the slots before i.
	for range e.occ {
		w = (w + 1) & (len(e.occ) - 1)
		if b := e.occ[w]; b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
	}
	panic("sim: wheel count and occupancy bitmap disagree")
}

// --- far heap --------------------------------------------------------------

// siftUp restores heap order from index i upward.
func (e *Engine) siftUp(i int) {
	ev := e.far[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := e.far[parent]
		if !less(ev, p) {
			break
		}
		e.far[i] = p
		p.idx = i
		i = parent
	}
	e.far[i] = ev
	ev.idx = i
}

// siftDown restores heap order from index i downward.
func (e *Engine) siftDown(i int) {
	n := len(e.far)
	ev := e.far[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(e.far[c], e.far[min]) {
				min = c
			}
		}
		if !less(e.far[min], ev) {
			break
		}
		e.far[i] = e.far[min]
		e.far[i].idx = i
		i = min
	}
	e.far[i] = ev
	ev.idx = i
}

// remove deletes the event at far-heap index i.
func (e *Engine) remove(i int) {
	n := len(e.far) - 1
	ev := e.far[i]
	if i != n {
		moved := e.far[n]
		e.far[i] = moved
		moved.idx = i
		e.far[n] = nil
		e.far = e.far[:n]
		if less(moved, ev) {
			e.siftUp(i)
		} else {
			e.siftDown(i)
		}
	} else {
		e.far[n] = nil
		e.far = e.far[:n]
	}
	ev.idx = notQueued
}

// --- scheduling --------------------------------------------------------------

// head returns the earliest pending event, or nil when none is pending.
func (e *Engine) head() *Event {
	var w *Event
	if e.wheelLen > 0 {
		w = e.slots[e.firstSlot()].head
	}
	if len(e.far) > 0 && (w == nil || less(e.far[0], w)) {
		return e.far[0]
	}
	return w
}

// dequeue removes a pending event from the wheel or the far heap.
func (e *Engine) dequeue(ev *Event) {
	if ev.idx == inWheel {
		e.unlink(ev)
	} else {
		e.remove(ev.idx)
	}
}

// fire runs ev, the head of the pending set.
func (e *Engine) fire(ev *Event) {
	e.dequeue(ev)
	e.now = ev.at
	if ev.at > e.base {
		e.base = ev.at
	}
	e.fired++
	pl := ev.pl
	e.recycle(ev)
	pl.H.Fire(pl.Kind, pl.Pkt, pl.A, pl.B)
}

// alloc takes an Event from the free list or allocates one.
func (e *Engine) alloc(at units.Time, pl Payload) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.at = at
	ev.seq = e.nextSeq
	ev.pl = pl
	e.nextSeq++
	return ev
}

// recycle returns a fired or cancelled event to the free list, dropping
// its payload so the free list keeps no packet or handler alive.
func (e *Engine) recycle(ev *Event) {
	ev.pl = Payload{}
	ev.gen++
	if len(e.free) < 4096 {
		e.free = append(e.free, ev)
	}
}

// At schedules fn to run at absolute time at, on channel 0. Scheduling in
// the past (before Now) panics: it would silently corrupt causality.
// Same-cycle channel-0 events fire in scheduling order (FIFO).
func (e *Engine) At(at units.Time, fn func()) Handle {
	return e.Post(at, 0, Payload{H: Func(fn)})
}

// AtChannel schedules fn at absolute time at on ordering channel ch.
// Same-cycle events fire in (channel, scheduling-order) order; see less.
// Channel ids are assigned by the network layer, one per directed link
// endpoint and receiver-report path, so the order of same-cycle events is
// identical whether they were scheduled on one engine or relayed between
// shard engines by internal/parsim.
func (e *Engine) AtChannel(at units.Time, ch uint32, fn func()) Handle {
	return e.Post(at, ch, Payload{H: Func(fn)})
}

// Post schedules the typed event pl at absolute time at on ordering
// channel ch (0 for the plain FIFO order of At): when it fires, pl.H
// receives Fire(pl.Kind, pl.Pkt, pl.A, pl.B). Posting needs no closure, so
// a warm engine schedules and fires typed events without allocating.
// Ordering and the past-scheduling panic are those of At and AtChannel.
func (e *Engine) Post(at units.Time, ch uint32, pl Payload) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := e.alloc(at, pl)
	ev.ch = ch
	// Unsigned, so an event before base (possible only after Run was given
	// a horizon behind the clock) goes to the heap as well.
	if uint64(at-e.base) < wheelSpan {
		e.link(ev)
	} else {
		ev.idx = len(e.far)
		e.far = append(e.far, ev)
		e.siftUp(ev.idx)
	}
	if n := e.Pending(); n > e.maxPending {
		e.maxPending = n
	}
	return Handle{ev, ev.gen}
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay units.Time, fn func()) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and reports false.
func (e *Engine) Cancel(h Handle) bool {
	if !h.Pending() {
		return false
	}
	e.dequeue(h.ev)
	e.recycle(h.ev)
	return true
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether the engine is in the stopped state: Stop was
// called and no Run/Drain call has cleared it since. Each Run and Drain
// call resets the flag on entry (the stop request is per-call, not
// sticky), so Stopped is meaningful between the return of a Run that was
// interrupted and the next Run — exactly the window internal/parsim needs
// to propagate a stop across shard engines.
func (e *Engine) Stopped() bool { return e.stopped }

// PeekTime returns the firing time of the earliest pending event. ok is
// false when no events are pending.
func (e *Engine) PeekTime() (at units.Time, ok bool) {
	ev := e.head()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// Run executes events in order until the queue is empty, Stop is called,
// or the next event would fire after until. The clock is left at the time
// of the last executed event, or advanced to until if the queue drained
// earlier (so that a subsequent Run(until2) resumes correctly).
//
// Reset semantics of Stop: the stopped flag is cleared at the top of every
// Run (and Drain) call, so a Stop only interrupts the call during which it
// fires. After an interrupted Run returns, Stopped reports true until the
// next Run/Drain clears it; calling Run again resumes execution from the
// current clock as if Stop had never happened.
func (e *Engine) Run(until units.Time) {
	e.stopped = false
	for !e.stopped {
		next := e.head()
		if next == nil {
			break
		}
		if next.at > until {
			e.now = until
			if until > e.base {
				e.base = until
			}
			return
		}
		e.fire(next)
	}
	if e.now < until {
		e.now = until
		if e.Pending() == 0 {
			e.base = until
		}
	}
}

// Drain executes all remaining events regardless of time, leaving the
// clock at the last executed event. It is intended for tests; simulations
// should use Run with an explicit horizon.
func (e *Engine) Drain() {
	e.stopped = false
	for !e.stopped {
		next := e.head()
		if next == nil {
			return
		}
		e.fire(next)
	}
}
