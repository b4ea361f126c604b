package parsim

import (
	"fmt"
	"testing"

	"deadlineqos/internal/sim"
	"deadlineqos/internal/units"
)

// The test model: n nodes in a ring. Each node runs a local event chain on
// channel 0 and, on every 3rd local event, notifies its ring successor
// with a message that fires 50 cycles later on the sender's unique
// channel. Each executed event appends a (time, tag) record to the owning
// node's log. The sequential reference runs all nodes on one engine with
// cross-node sends scheduled directly via AtChannel; the parallel run puts
// one node per LP and relays sends through Queues. Logs must match
// exactly.

type record struct {
	at  units.Time
	tag string
}

type node struct {
	id      int
	eng     *sim.Engine
	log     []record
	deliver func(fire units.Time, ch uint32, fn func()) // into the successor
	succ    *node
	horizon units.Time
}

const crossDelay = units.Time(50)

func (nd *node) local(step int) {
	now := nd.eng.Now()
	nd.log = append(nd.log, record{now, fmt.Sprintf("local%d", step)})
	localD := units.Time(7 + nd.id)
	if now+localD <= nd.horizon {
		nd.eng.After(localD, func() { nd.local(step + 1) })
	}
	if step%3 == 0 {
		if fire := now + crossDelay; fire <= nd.horizon {
			from, s, dst := nd.id, step, nd.succ
			nd.deliver(fire, uint32(100+nd.id), func() {
				dst.log = append(dst.log, record{dst.eng.Now(), fmt.Sprintf("recv%d-from%d", s, from)})
			})
		}
	}
}

func runRing(n int, horizon units.Time, parallel bool) [][]record {
	nodes := make([]*node, n)
	if parallel {
		queues := make([]*Queue, n) // inbound queue of node i
		lps := make([]*LP, n)
		for i := range nodes {
			nodes[i] = &node{id: i, eng: sim.New(), horizon: horizon}
			queues[i] = &Queue{}
		}
		for i, nd := range nodes {
			nd.succ = nodes[(i+1)%n]
			q := queues[(i+1)%n]
			nd.deliver = func(fire units.Time, ch uint32, fn func()) { q.Put(fire, ch, sim.Payload{H: sim.Func(fn)}) }
			lps[i] = &LP{Eng: nodes[i].eng, In: []*Queue{queues[i]}}
		}
		for _, nd := range nodes {
			nd.local(1)
		}
		Run(lps, horizon, crossDelay)
	} else {
		eng := sim.New()
		for i := range nodes {
			nodes[i] = &node{id: i, eng: eng, horizon: horizon}
		}
		for i, nd := range nodes {
			nd.succ = nodes[(i+1)%n]
			nd.deliver = func(fire units.Time, ch uint32, fn func()) { eng.AtChannel(fire, ch, fn) }
		}
		for _, nd := range nodes {
			nd.local(1)
		}
		eng.Run(horizon)
	}
	logs := make([][]record, n)
	for i, nd := range nodes {
		logs[i] = nd.log
	}
	return logs
}

func TestParallelMatchesSequential(t *testing.T) {
	const horizon = 10_000
	for _, n := range []int{2, 3, 4} {
		seq := runRing(n, horizon, false)
		par := runRing(n, horizon, true)
		for i := range seq {
			if len(seq[i]) != len(par[i]) {
				t.Fatalf("n=%d node %d: sequential %d records, parallel %d",
					n, i, len(seq[i]), len(par[i]))
			}
			for j := range seq[i] {
				if seq[i][j] != par[i][j] {
					t.Fatalf("n=%d node %d record %d: sequential %v, parallel %v",
						n, i, j, seq[i][j], par[i][j])
				}
			}
		}
	}
}

func TestRunSingleLP(t *testing.T) {
	eng := sim.New()
	var fired []units.Time
	eng.At(10, func() { fired = append(fired, eng.Now()) })
	eng.At(20, func() { fired = append(fired, eng.Now()) })
	Run([]*LP{{Eng: eng}}, 100, 1)
	if len(fired) != 2 || eng.Now() != 100 {
		t.Fatalf("single-LP run: fired %v, now %v", fired, eng.Now())
	}
}

func TestQueueTakeUpTo(t *testing.T) {
	q := &Queue{}
	noop := sim.Payload{H: sim.Func(func() {})}
	q.Put(30, 2, noop)
	q.Put(10, 1, noop)
	q.Put(20, 3, noop)
	if min, ok := q.MinFire(); !ok || min != 10 {
		t.Fatalf("MinFire = %v, %v; want 10, true", min, ok)
	}
	got := q.TakeUpTo(20, nil)
	if len(got) != 2 {
		t.Fatalf("TakeUpTo(20) returned %d messages, want 2", len(got))
	}
	for _, m := range got {
		if m.Fire > 20 {
			t.Fatalf("took message firing at %v past 20", m.Fire)
		}
	}
	if min, ok := q.MinFire(); !ok || min != 30 {
		t.Fatalf("after take, MinFire = %v, %v; want 30, true", min, ok)
	}
	if rest := q.TakeUpTo(100, nil); len(rest) != 1 || rest[0].Fire != 30 {
		t.Fatalf("remaining messages wrong: %v", rest)
	}
}

func TestStopPropagates(t *testing.T) {
	engs := []*sim.Engine{sim.New(), sim.New()}
	lps := []*LP{{Eng: engs[0]}, {Eng: engs[1]}}
	var after0 bool
	engs[0].At(10, func() { engs[0].Stop() })
	engs[0].At(5_000, func() { after0 = true })
	engs[1].At(10, func() {})
	engs[1].At(5_000, func() {})
	Run(lps, 100_000, 100)
	if after0 {
		t.Fatal("event after Stop executed on the stopping engine")
	}
}
