package pqueue

import (
	"testing"

	"deadlineqos/internal/packet"
	"deadlineqos/internal/units"
)

// orderErrorLog is an Observer that counts OrderError calls.
type orderErrorLog struct{ calls uint64 }

func (o *orderErrorLog) TakeOverEnqueued(*packet.Packet) {}
func (o *orderErrorLog) OrderError(*packet.Packet)       { o.calls++ }

// driveOracle replays one op stream against a tracked buffer of every
// discipline. Each byte is one op: one in four pops (or pushes, when the
// buffer is empty), the rest push a packet whose deadline drifts upward
// with the position, as a flow's do, plus a jitter of 0-11 from the byte,
// so ties are frequent. Before every pop the naive minimum is taken over
// Scan; after it, OrderErrors and the observer's calls must both equal
// the number of pops that emitted a larger deadline. A final drain
// checks every remaining pop the same way.
func driveOracle(t *testing.T, ops []byte) {
	t.Helper()
	for _, d := range []Discipline{FIFO, Heap, TakeOver} {
		b := New(d, units.Size(1)<<40, true)
		var obs orderErrorLog
		b.SetObserver(&obs)
		var naive uint64
		pop := func(op int) {
			least := units.Infinity
			b.Scan(func(p *packet.Packet) { least = min(least, p.Deadline) })
			if b.Pop().Deadline > least {
				naive++
			}
			if b.OrderErrors() != naive || obs.calls != naive {
				t.Fatalf("%v op %d: OrderErrors %d, observer %d, naive count %d (%d stored)",
					d, op, b.OrderErrors(), obs.calls, naive, b.Len())
			}
		}
		for i, op := range ops {
			if op%4 != 0 || b.Len() == 0 {
				b.Push(pkt(units.Time(i/4+int(op>>2)%12), 64))
				continue
			}
			pop(i)
		}
		for i := len(ops); b.Len() > 0; i++ {
			pop(i)
		}
		if d == Heap && naive != 0 {
			t.Fatalf("heap counted %d order errors", naive)
		}
	}
}

// TestOrderErrorsMatchNaive runs deterministic pseudo-random op streams
// through driveOracle (the always-on arm of the fuzz property below).
func TestOrderErrorsMatchNaive(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := seed * 0x9e3779b97f4a7c15
		ops := make([]byte, 600)
		for i := range ops {
			rng = rng*6364136223846793005 + 1442695040888963407
			ops[i] = byte(rng >> 56)
		}
		driveOracle(t, ops)
	}
}

// FuzzOrderErrors lets the fuzzer search for push/pop interleavings
// where a buffer's order-error count and the naive one disagree.
func FuzzOrderErrors(f *testing.F) {
	f.Add([]byte{1, 1, 1, 0, 0, 0})
	f.Add([]byte{5, 9, 13, 4, 8, 12, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		driveOracle(t, ops)
	})
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
