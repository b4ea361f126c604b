package pqueue

// Property tests encoding the paper's appendix: the two-queue (ordered +
// take-over) system never delivers a single flow's packets out of order
// (Theorem 3), the ordered queue stays deadline-sorted (Theorem 1), the
// maximum deadline is always the ordered queue's tail (Theorem 2), and the
// take-over queue is never the only non-empty queue (Lemma 1).
//
// The random driver honours the appendix's initial hypotheses: packets of
// one flow arrive in sequence order with strictly increasing deadlines.
// Across flows, arrival interleaving and deadline overlap are arbitrary —
// exactly the regime where a plain FIFO commits order errors.

import (
	"testing"
	"testing/quick"

	"deadlineqos/internal/packet"
	"deadlineqos/internal/units"
	"deadlineqos/internal/xrand"
)

// takeoverScenario drives a TakeOverQueue with nFlows flows of nPkts packets
// each, randomly interleaving pushes and pops, verifying all appendix
// invariants after every operation. It returns false on any violation.
func takeoverScenario(t *testing.T, seed uint64, nFlows, nPkts int) bool {
	t.Helper()
	rng := xrand.New(seed)
	q := NewTakeOver(units.Megabyte, true)

	// Pre-generate each flow's packets with strictly increasing deadlines
	// (hypothesis (1)) and fix a global arrival interleaving that respects
	// per-flow order (hypothesis (2)).
	type cursor struct {
		pkts []*packet.Packet
		next int
	}
	flows := make([]*cursor, nFlows)
	for f := range flows {
		c := &cursor{}
		dl := units.Time(rng.UniformInt(0, 50))
		for s := 0; s < nPkts; s++ {
			dl += units.Time(rng.UniformInt(1, 40))
			c.pkts = append(c.pkts, flowPkt(packet.FlowID(f), uint64(s), dl))
		}
		flows[f] = c
	}

	lastDeparted := make(map[packet.FlowID]int64)
	for f := range flows {
		lastDeparted[packet.FlowID(f)] = -1
	}
	remaining := nFlows * nPkts

	check := func() bool {
		if q.u.len() > 0 && q.l.len() == 0 {
			t.Logf("seed %d: Lemma 1 violated", seed)
			return false
		}
		if !orderedQueueSorted(q) {
			t.Logf("seed %d: Theorem 1 violated (L not sorted)", seed)
			return false
		}
		if !maxIsLTail(q) {
			t.Logf("seed %d: Theorem 2 violated (max not at L tail)", seed)
			return false
		}
		return true
	}

	for remaining > 0 || q.Len() > 0 {
		doPush := remaining > 0 && (q.Len() == 0 || rng.Float64() < 0.55)
		if doPush {
			// Pick a random flow with packets left.
			f := rng.Intn(nFlows)
			for flows[f].next >= nPkts {
				f = (f + 1) % nFlows
			}
			c := flows[f]
			q.Push(c.pkts[c.next])
			c.next++
			remaining--
		} else {
			p := q.Pop()
			if p == nil {
				t.Logf("seed %d: Pop returned nil on non-empty queue", seed)
				return false
			}
			if int64(p.Seq) <= lastDeparted[p.Flow] {
				t.Logf("seed %d: Theorem 3 violated: flow %d seq %d departed after seq %d",
					seed, p.Flow, p.Seq, lastDeparted[p.Flow])
				return false
			}
			lastDeparted[p.Flow] = int64(p.Seq)
		}
		if !check() {
			return false
		}
	}
	return true
}

func TestTakeoverNoReorderSmall(t *testing.T) {
	prop := func(seed uint64) bool { return takeoverScenario(t, seed, 3, 8) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestTakeoverNoReorderManyFlows(t *testing.T) {
	prop := func(seed uint64) bool { return takeoverScenario(t, seed, 12, 25) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTakeoverNoReorderSingleFlow(t *testing.T) {
	// Degenerate case: one flow can never take over itself (its deadlines
	// are increasing), so U must stay empty throughout.
	rng := xrand.New(99)
	q := NewTakeOver(units.Megabyte, false)
	dl := units.Time(0)
	for s := 0; s < 100; s++ {
		dl += units.Time(rng.UniformInt(1, 20))
		q.Push(flowPkt(1, uint64(s), dl))
		if q.ULen() != 0 {
			t.Fatal("single increasing-deadline flow diverted to take-over queue")
		}
	}
	var prev int64 = -1
	for q.Len() > 0 {
		p := q.Pop()
		if int64(p.Seq) <= prev {
			t.Fatal("single flow reordered")
		}
		prev = int64(p.Seq)
	}
}

func TestTakeoverMatchesHeapContent(t *testing.T) {
	// The two-queue system holds exactly the pushed multiset: nothing is
	// lost or duplicated under random interleaving.
	prop := func(seed uint64) bool {
		rng := xrand.New(seed)
		q := NewTakeOver(units.Megabyte, false)
		pushed := make(map[uint64]bool)
		popped := make(map[uint64]bool)
		dl := map[int]units.Time{0: 0, 1: 0, 2: 0}
		seq := map[int]uint64{}
		for op := 0; op < 200; op++ {
			if q.Len() == 0 || rng.Float64() < 0.5 {
				f := rng.Intn(3)
				dl[f] += units.Time(rng.UniformInt(1, 30))
				p := flowPkt(packet.FlowID(f), seq[f], dl[f])
				seq[f]++
				pushed[p.ID] = true
				q.Push(p)
			} else {
				p := q.Pop()
				if p == nil || popped[p.ID] || !pushed[p.ID] {
					return false
				}
				popped[p.ID] = true
			}
		}
		for q.Len() > 0 {
			p := q.Pop()
			if p == nil || popped[p.ID] {
				return false
			}
			popped[p.ID] = true
		}
		return len(popped) == len(pushed)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTakeoverReducesOrderErrorsVsFIFO(t *testing.T) {
	// The point of §3.4: under identical adversarial arrivals, the
	// two-queue buffer commits strictly fewer order errors than a FIFO.
	// (The heap commits zero by construction.)
	rng := xrand.New(4242)
	fifo := NewFIFO[*packet.Packet](units.Megabyte, true)
	tq := NewTakeOver(units.Megabyte, true)

	dl := map[int]units.Time{}
	seq := map[int]uint64{}
	var arrivals []*packet.Packet
	for i := 0; i < 2000; i++ {
		f := rng.Intn(8)
		dl[f] += units.Time(rng.UniformInt(1, 100))
		arrivals = append(arrivals, flowPkt(packet.FlowID(f), seq[f], dl[f]))
		seq[f]++
	}
	run := func(b Buffer) uint64 {
		i := 0
		r := xrand.New(7) // same pop pattern for both buffers
		for i < len(arrivals) || b.Len() > 0 {
			if i < len(arrivals) && (b.Len() == 0 || r.Float64() < 0.5) {
				// Both buffers see packet copies so deadline bookkeeping
				// cannot alias between them.
				cp := *arrivals[i]
				b.Push(&cp)
				i++
			} else {
				b.Pop()
			}
		}
		return b.OrderErrors()
	}
	fe, te := run(fifo), run(tq)
	if fe == 0 {
		t.Fatal("adversarial arrivals produced no FIFO order errors; scenario too weak")
	}
	if te >= fe {
		t.Fatalf("take-over queue did not reduce order errors: fifo=%d takeover=%d", fe, te)
	}
	t.Logf("order errors: fifo=%d takeover=%d (%.1f%% of fifo)", fe, te, 100*float64(te)/float64(fe))
}
