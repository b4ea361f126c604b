package sim

import (
	"container/heap"
	"testing"

	"deadlineqos/internal/units"
	"deadlineqos/internal/xrand"
)

// refEvent is one event of the reference engine.
type refEvent struct {
	at    units.Time
	ch    uint32
	seq   uint64
	id    int
	state int // refPending, refFired or refCancelled
}

const (
	refPending = iota
	refFired
	refCancelled
)

// refQueue is a container/heap of events ordered by (at, ch, seq), the
// total order the engine promises. Cancelled events stay in it until they
// surface at the top.
type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.ch != b.ch {
		return a.ch < b.ch
	}
	return a.seq < b.seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

// refEngine is the reference the engine must match event for event: a
// binary heap with the clock, Stop and Run(until) rules of the engine's
// contract.
type refEngine struct {
	now        units.Time
	q          refQueue
	nextSeq    uint64
	pending    int
	maxPending int
	stopped    bool
	fire       func(id int)
}

func (r *refEngine) post(at units.Time, ch uint32, id int) *refEvent {
	ev := &refEvent{at: at, ch: ch, seq: r.nextSeq, id: id}
	r.nextSeq++
	heap.Push(&r.q, ev)
	r.pending++
	r.maxPending = max(r.maxPending, r.pending)
	return ev
}

func (r *refEngine) cancel(ev *refEvent) bool {
	if ev.state != refPending {
		return false
	}
	ev.state = refCancelled
	r.pending--
	return true
}

// peek returns the earliest live event, discarding cancelled ones.
func (r *refEngine) peek() *refEvent {
	for len(r.q) > 0 {
		if ev := r.q[0]; ev.state == refPending {
			return ev
		}
		heap.Pop(&r.q)
	}
	return nil
}

func (r *refEngine) run(until units.Time) {
	r.stopped = false
	for !r.stopped {
		ev := r.peek()
		if ev == nil {
			break
		}
		if ev.at > until {
			r.now = until
			return
		}
		heap.Pop(&r.q)
		ev.state = refFired
		r.pending--
		r.now = ev.at
		r.fire(ev.id)
	}
	if r.now < until {
		r.now = until
	}
}

func (r *refEngine) drain() {
	r.stopped = false
	for !r.stopped {
		ev := r.peek()
		if ev == nil {
			return
		}
		heap.Pop(&r.q)
		ev.state = refFired
		r.pending--
		r.now = ev.at
		r.fire(ev.id)
	}
}

// plan is what one event does when it fires: optionally post a child
// event (reserved id, delay and channel fixed up front, so both engines
// post the same child) and optionally stop the run.
type plan struct {
	child int // -1 for none
	delay units.Time
	ch    uint32
	stop  bool
}

// wheelDiff drives an Engine and a refEngine with the same operations.
type wheelDiff struct {
	t        *testing.T
	rng      *xrand.Rand
	eng      *Engine
	ref      *refEngine
	handles  []Handle
	refEvs   []*refEvent
	plans    []plan
	got      []firing
	want     []firing
	cancels  [2]int // cancelled wheel and far events
	farPosts int
}

type firing struct {
	id int
	at units.Time
}

func newWheelDiff(t *testing.T, seed uint64) *wheelDiff {
	d := &wheelDiff{t: t, rng: xrand.New(seed), eng: New()}
	d.ref = &refEngine{fire: func(id int) { d.onFire(id, false) }}
	return d
}

// delay draws a delay around the wheel's edges, at the same cycle, or far.
func (d *wheelDiff) delay() units.Time {
	switch d.rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return wheelSpan - 1
	case 3:
		return wheelSpan
	case 4:
		return wheelSpan + 1
	case 5:
		return wheelSpan + units.Time(d.rng.Intn(20*wheelSpan))
	default:
		// Clustered near the clock: many events share a cycle.
		return units.Time(d.rng.Intn(4))
	}
}

// newPlan reserves an id and decides what its event will do.
func (d *wheelDiff) newPlan() int {
	id := len(d.plans)
	p := plan{child: -1, stop: d.rng.Intn(50) == 0}
	d.plans = append(d.plans, p)
	d.handles = append(d.handles, Handle{})
	d.refEvs = append(d.refEvs, nil)
	if d.rng.Intn(3) == 0 {
		d.plans[id].child = d.newPlan()
		d.plans[id].delay = d.delay()
		d.plans[id].ch = uint32(d.rng.Intn(4))
	}
	return id
}

// post schedules event id at at on ch in one of the two engines.
func (d *wheelDiff) post(id int, at units.Time, ch uint32, real bool) {
	if !real {
		d.refEvs[id] = d.ref.post(at, ch, id)
		return
	}
	if uint64(at-d.eng.base) >= wheelSpan {
		d.farPosts++
	}
	d.handles[id] = d.eng.AtChannel(at, ch, func() { d.onFire(id, true) })
}

func (d *wheelDiff) onFire(id int, real bool) {
	p := d.plans[id]
	now := d.ref.now
	if real {
		now = d.eng.Now()
		d.got = append(d.got, firing{id, now})
	} else {
		d.want = append(d.want, firing{id, now})
	}
	if p.child >= 0 {
		at := now + p.delay
		if at < now { // a near-Infinity parent: saturate
			at = units.Infinity
		}
		d.post(p.child, at, p.ch, real)
	}
	if p.stop {
		if real {
			d.eng.Stop()
		} else {
			d.ref.stopped = true
		}
	}
}

// check compares everything observable after op.
func (d *wheelDiff) check(op int, what string) {
	t := d.t
	t.Helper()
	if len(d.got) != len(d.want) {
		t.Fatalf("op %d (%s): engine fired %d events, reference %d", op, what, len(d.got), len(d.want))
	}
	for i := range d.got {
		if d.got[i] != d.want[i] {
			t.Fatalf("op %d (%s): firing %d is %+v, reference %+v", op, what, i, d.got[i], d.want[i])
		}
	}
	if d.eng.Now() != d.ref.now {
		t.Fatalf("op %d (%s): clock %v, reference %v", op, what, d.eng.Now(), d.ref.now)
	}
	if d.eng.Pending() != d.ref.pending || d.eng.MaxPending() != d.ref.maxPending {
		t.Fatalf("op %d (%s): Pending/MaxPending %d/%d, reference %d/%d",
			op, what, d.eng.Pending(), d.eng.MaxPending(), d.ref.pending, d.ref.maxPending)
	}
	if d.eng.Stopped() != d.ref.stopped {
		t.Fatalf("op %d (%s): Stopped %v, reference %v", op, what, d.eng.Stopped(), d.ref.stopped)
	}
	for id, h := range d.handles {
		ref := d.refEvs[id]
		if want := ref != nil && ref.state == refPending; h.Pending() != want {
			t.Fatalf("op %d (%s): event %d Handle.Pending %v, reference %v", op, what, id, h.Pending(), want)
		}
	}
	at, ok := d.eng.PeekTime()
	var wantAt units.Time
	ev := d.ref.peek()
	if ev != nil {
		wantAt = ev.at
	}
	if ok != (ev != nil) || at != wantAt {
		t.Fatalf("op %d (%s): PeekTime %v, %v; reference %v, %v", op, what, at, ok, wantAt, ev != nil)
	}
}

// TestWheelMatchesReferenceHeap drives the wheel engine and a
// container/heap reference ordered by (at, ch, seq) with one random stream
// of posts, cancels, PeekTime and Run(until) calls, including delays at
// the wheel's edges, far and near-Infinity events, same-cycle events on
// several channels, events that post and stop from inside the run, and
// cancels of wheel and far events. Every firing, the clock, Pending,
// MaxPending, Stopped and every Handle.Pending must agree after every step.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		d := newWheelDiff(t, seed)
		for op := 0; op < 4000; op++ {
			switch k := d.rng.Intn(20); {
			case k < 9:
				id := d.newPlan()
				at := d.eng.Now() + d.delay()
				if d.rng.Intn(40) == 0 {
					at = units.Infinity - units.Time(d.rng.Intn(3))
				}
				ch := uint32(d.rng.Intn(4))
				d.post(id, at, ch, true)
				d.post(id, at, ch, false)
				d.check(op, "post")
			case k < 13:
				if len(d.handles) == 0 {
					continue
				}
				// Half the cancels pick a recent event, most likely still
				// pending in the wheel; the rest any event ever posted.
				id := d.rng.Intn(len(d.handles))
				if d.rng.Intn(2) == 0 {
					id = len(d.handles) - 1 - d.rng.Intn(min(8, len(d.handles)))
				}
				h := d.handles[id]
				where := -1
				if h.Pending() {
					where = 1
					if h.ev.idx == inWheel {
						where = 0
					}
				}
				got := d.eng.Cancel(h)
				want := d.refEvs[id] != nil && d.ref.cancel(d.refEvs[id])
				if got != want {
					t.Fatalf("seed %d op %d: Cancel(%d) = %v, reference %v", seed, op, id, got, want)
				}
				if got {
					d.cancels[where]++
				}
				d.check(op, "cancel")
			case k < 14:
				d.check(op, "peek")
			default:
				var step units.Time
				switch d.rng.Intn(8) {
				case 0:
					step = units.Time(d.rng.Intn(3))
				case 1:
					step = wheelSpan - 1 + units.Time(d.rng.Intn(3))
				case 2:
					// A horizon behind the clock: Run moves the clock
					// back to it, and later posts may precede events
					// already fired.
					step = -units.Time(d.rng.Intn(2 * wheelSpan))
				default:
					step = units.Time(d.rng.Intn(3 * wheelSpan))
				}
				until := max(d.eng.Now()+step, 0)
				d.eng.Run(until)
				d.ref.run(until)
				d.check(op, "run")
			}
		}
		d.eng.Drain()
		d.ref.drain()
		d.check(-1, "drain")
		for d.eng.Pending() > 0 { // resume after Stops inside the drain
			d.eng.Drain()
			d.ref.drain()
			d.check(-1, "drain")
		}
		if d.cancels[0] == 0 || d.cancels[1] == 0 || d.farPosts == 0 {
			t.Fatalf("seed %d: stream cancelled %d wheel and %d far events with %d far posts; it must exercise both",
				seed, d.cancels[0], d.cancels[1], d.farPosts)
		}
	}
}
