package sim

import (
	"sort"
	"testing"
	"testing/quick"

	"deadlineqos/internal/packet"
	"deadlineqos/internal/units"
	"deadlineqos/internal/xrand"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var got []units.Time
	for _, at := range []units.Time{30, 10, 20, 10, 5} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.Drain()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { got = append(got, i) })
	}
	e.Drain()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events not FIFO: %v", got)
		}
	}
}

func TestNowAdvances(t *testing.T) {
	e := New()
	var at50, at70 units.Time
	e.At(50, func() { at50 = e.Now() })
	e.After(70, func() { at70 = e.Now() })
	e.Drain()
	if at50 != 50 || at70 != 70 {
		t.Fatalf("Now inside events = %v, %v; want 50, 70", at50, at70)
	}
}

func TestAfterIsRelative(t *testing.T) {
	e := New()
	var fired units.Time
	e.At(100, func() {
		e.After(25, func() { fired = e.Now() })
	})
	e.Drain()
	if fired != 125 {
		t.Fatalf("After(25) from t=100 fired at %v, want 125", fired)
	}
}

func TestRunHorizon(t *testing.T) {
	e := New()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	e.At(30, func() { fired++ })
	e.Run(20)
	if fired != 2 {
		t.Fatalf("Run(20) fired %d events, want 2", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("clock at %v after Run(20), want 20", e.Now())
	}
	e.Run(100)
	if fired != 3 {
		t.Fatalf("resumed run fired %d total, want 3", fired)
	}
}

func TestRunAdvancesClockWhenQueueDrains(t *testing.T) {
	e := New()
	e.At(5, func() {})
	e.Run(1000)
	if e.Now() != 1000 {
		t.Fatalf("clock = %v after draining Run(1000), want 1000", e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	h := e.At(10, func() { fired = true })
	if !h.Pending() {
		t.Fatal("handle not pending after scheduling")
	}
	if !e.Cancel(h) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if h.Pending() {
		t.Fatal("handle still pending after cancel")
	}
	if e.Cancel(h) {
		t.Fatal("double Cancel returned true")
	}
	e.Drain()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := New()
	var got []int
	var hs []Handle
	for i := 0; i < 20; i++ {
		i := i
		hs = append(hs, e.At(units.Time(i*10), func() { got = append(got, i) }))
	}
	// Cancel every third event.
	for i := 0; i < 20; i += 3 {
		e.Cancel(hs[i])
	}
	e.Drain()
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(got) != 13 {
		t.Fatalf("fired %d events, want 13", len(got))
	}
}

func TestStop(t *testing.T) {
	e := New()
	fired := 0
	e.At(10, func() { fired++; e.Stop() })
	e.At(20, func() { fired++ })
	e.Run(1000)
	if fired != 1 {
		t.Fatalf("Stop did not halt the run: fired = %d", fired)
	}
	// A subsequent Run resumes.
	e.Run(1000)
	if fired != 2 {
		t.Fatalf("run after Stop fired %d total, want 2", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Drain()
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("After(-1) did not panic")
		}
	}()
	New().After(-1, func() {})
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.At(units.Time(i), func() {})
	}
	e.Drain()
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

func TestCascadingEvents(t *testing.T) {
	// Events scheduled by events must fire; model a chain of packet hops.
	e := New()
	depth := 0
	var hop func()
	hop = func() {
		depth++
		if depth < 100 {
			e.After(3, hop)
		}
	}
	e.At(0, hop)
	e.Drain()
	if depth != 100 {
		t.Fatalf("cascade depth = %d, want 100", depth)
	}
	if e.Now() != 297 {
		t.Fatalf("clock = %v, want 297", e.Now())
	}
}

func TestOrderPropertyRandomSchedules(t *testing.T) {
	// Property: for any batch of scheduled times, execution order is a
	// stable sort of the schedule by time.
	prop := func(times []uint16) bool {
		e := New()
		type rec struct {
			at  units.Time
			seq int
		}
		var got []rec
		for i, raw := range times {
			at := units.Time(raw)
			i := i
			e.At(at, func() { got = append(got, rec{at, i}) })
		}
		e.Drain()
		if len(got) != len(times) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false // FIFO tie-break violated
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHandleInvalidAfterFire(t *testing.T) {
	// Events are recycled through a free list; a handle to a fired event
	// must not report Pending even after its Event struct is reused.
	e := New()
	h1 := e.At(10, func() {})
	e.Run(20)
	if h1.Pending() {
		t.Fatal("handle pending after event fired")
	}
	// Reuse the freed Event for a new schedule; the old handle must stay
	// invalid and must not cancel the new event.
	h2 := e.At(30, func() {})
	if h1.Pending() {
		t.Fatal("stale handle revived by recycling")
	}
	if e.Cancel(h1) {
		t.Fatal("stale handle cancelled a recycled event")
	}
	if !h2.Pending() {
		t.Fatal("new handle not pending")
	}
}

func TestFreeListRecyclingKeepsOrder(t *testing.T) {
	// Hammer schedule/fire cycles through the free list and verify order
	// never degrades.
	e := New()
	fired := 0
	var last units.Time = -1
	var step func()
	step = func() {
		now := e.Now()
		if now < last {
			t.Fatalf("time went backwards: %v after %v", now, last)
		}
		last = now
		fired++
		if fired < 5000 {
			e.After(units.Time(1+fired%7), step)
		}
	}
	e.At(0, func() { step() })
	e.Drain()
	if fired != 5000 {
		t.Fatalf("fired %d, want 5000", fired)
	}
}

func TestManyPendingEventsOrdered(t *testing.T) {
	// A large 4-ary heap with random times must still fire in order.
	e := New()
	r := uint64(12345)
	next := func() uint64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return r
	}
	var prev units.Time = -1
	for i := 0; i < 20000; i++ {
		at := units.Time(next() % 1_000_000)
		e.At(at, func() {
			if e.Now() < prev {
				t.Fatalf("out of order: %v after %v", e.Now(), prev)
			}
			prev = e.Now()
		})
	}
	e.Drain()
}

func TestCancelStressRandom(t *testing.T) {
	// Randomly cancel half the events; the remainder must all fire in
	// order and none of the cancelled may fire.
	e := New()
	r := uint64(99)
	next := func() uint64 { r ^= r << 13; r ^= r >> 7; r ^= r << 17; return r }
	firedSet := make(map[int]bool)
	var handles []Handle
	var cancelled []bool
	for i := 0; i < 5000; i++ {
		i := i
		h := e.At(units.Time(next()%100000), func() { firedSet[i] = true })
		handles = append(handles, h)
		cancelled = append(cancelled, false)
	}
	for i := range handles {
		if next()%2 == 0 {
			if e.Cancel(handles[i]) {
				cancelled[i] = true
			}
		}
	}
	e.Drain()
	for i := range handles {
		if cancelled[i] && firedSet[i] {
			t.Fatalf("cancelled event %d fired", i)
		}
		if !cancelled[i] && !firedSet[i] {
			t.Fatalf("live event %d never fired", i)
		}
	}
}

func TestStoppedAccessor(t *testing.T) {
	e := New()
	if e.Stopped() {
		t.Fatal("fresh engine reports Stopped")
	}
	e.At(10, func() { e.Stop() })
	e.At(20, func() {})
	e.Run(100)
	if !e.Stopped() {
		t.Fatal("Stopped() false after a run halted by Stop")
	}
	// Run clears the flag on entry: the next call resumes and, without a
	// new Stop, completes the horizon.
	e.Run(100)
	if e.Stopped() {
		t.Fatal("Stopped() still true after a clean resumed run")
	}
	if e.Now() != 100 {
		t.Fatalf("resumed run ended at %v, want 100", e.Now())
	}
}

func TestAtNowFIFOTieBreak(t *testing.T) {
	// Events scheduled for the current instant from inside an event fire in
	// scheduling (FIFO) order, after the running event — the property the
	// parallel shard-merge rule leans on.
	e := New()
	var got []int
	e.At(50, func() {
		for i := 0; i < 5; i++ {
			i := i
			e.At(e.Now(), func() { got = append(got, i) })
		}
	})
	e.At(50, func() { got = append(got, 99) }) // scheduled earlier => fires first
	e.Drain()
	want := []int{99, 0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("same-cycle order %v, want %v", got, want)
		}
	}
}

func TestAtChannelOrderBeatsSeq(t *testing.T) {
	// At one instant the channel id outranks scheduling order: that is what
	// lets a sharded run reproduce the sequential order of cross-shard
	// arrivals. Channel 0 (plain At) sorts first.
	e := New()
	var got []int
	e.AtChannel(10, 7, func() { got = append(got, 7) })
	e.AtChannel(10, 3, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 0) })
	e.AtChannel(10, 3, func() { got = append(got, 4) }) // same channel: FIFO
	e.Drain()
	want := []int{0, 3, 4, 7}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("channel order %v, want %v", got, want)
		}
	}
}

func TestCancelRecycledHandleStaleGen(t *testing.T) {
	// A handle whose event has fired and been recycled (possibly several
	// times) must never cancel the slot's new occupant: the generation
	// counter, not the slot index, is the identity.
	e := New()
	stale := e.At(1, func() {})
	e.Run(5)
	// Cycle the freed slot through several reuse generations.
	for i := 0; i < 3; i++ {
		h := e.At(units.Time(10+i), func() {})
		if stale.Pending() {
			t.Fatalf("stale handle pending after %d recycles", i)
		}
		if e.Cancel(stale) {
			t.Fatalf("stale handle cancelled generation %d occupant", i)
		}
		if !h.Pending() {
			t.Fatalf("live handle of generation %d not pending", i)
		}
		e.Run(units.Time(10 + i))
	}
	fired := false
	live := e.At(100, func() { fired = true })
	if e.Cancel(stale) {
		t.Fatal("stale handle cancelled the live event")
	}
	e.Drain()
	if !fired {
		t.Fatal("live event killed by a stale-handle Cancel")
	}
	if live.Pending() {
		t.Fatal("live handle still pending after firing")
	}
}

func TestPeekTime(t *testing.T) {
	e := New()
	if _, ok := e.PeekTime(); ok {
		t.Fatal("PeekTime ok on an empty engine")
	}
	e.At(30, func() {})
	e.At(10, func() {})
	if at, ok := e.PeekTime(); !ok || at != 10 {
		t.Fatalf("PeekTime = %v, %v; want 10, true", at, ok)
	}
	e.Run(10)
	if at, ok := e.PeekTime(); !ok || at != 30 {
		t.Fatalf("PeekTime after partial run = %v, %v; want 30, true", at, ok)
	}
	e.Drain()
	if _, ok := e.PeekTime(); ok {
		t.Fatal("PeekTime ok after drain")
	}
}

// recorder is a Handler that logs every typed event it receives.
type recorder struct {
	e   *Engine
	got []fired
}

type fired struct {
	at   units.Time
	kind Kind
	p    *packet.Packet
	a, b uint64
}

func (r *recorder) Fire(kind Kind, p *packet.Packet, a, b uint64) {
	r.got = append(r.got, fired{r.e.Now(), kind, p, a, b})
}

func TestPostDeliversPayloadInOrder(t *testing.T) {
	e := New()
	r := &recorder{e: e}
	p := &packet.Packet{ID: 7}
	e.Post(20, 0, Payload{H: r, Kind: KindXbarFinish, Pkt: p, A: 3, B: 4})
	e.At(10, func() { r.got = append(r.got, fired{at: e.Now(), kind: KindFunc}) })
	e.Post(10, 0, Payload{H: r, Kind: KindWake, A: 1, B: 2})
	e.Post(10, 5, Payload{H: r, Kind: KindCredit})
	e.Drain()
	want := []fired{
		{10, KindFunc, nil, 0, 0}, // channel 0, scheduled first
		{10, KindWake, nil, 1, 2}, // channel 0, scheduled second
		{10, KindCredit, nil, 0, 0},
		{20, KindXbarFinish, p, 3, 4},
	}
	if len(r.got) != len(want) {
		t.Fatalf("fired %d events, want %d: %v", len(r.got), len(want), r.got)
	}
	for i := range want {
		if r.got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, r.got[i], want[i])
		}
	}
}

func TestPostFireAllocatesNothing(t *testing.T) {
	e := New()
	r := &recorder{e: e, got: make([]fired, 0, 1)}
	p := &packet.Packet{}
	if n := testing.AllocsPerRun(1000, func() {
		r.got = r.got[:0]
		e.Post(e.Now()+3, 9, Payload{H: r, Kind: KindLinkArrive, Pkt: p, A: 1, B: 2})
		e.Drain()
	}); n != 0 {
		t.Errorf("Post+fire allocates %v times per event, want 0", n)
	}
	// The func wrappers post a Func, whose conversion to Handler is free:
	// a func bound once schedules without allocating too.
	tick := func() {}
	if n := testing.AllocsPerRun(1000, func() {
		e.After(3, tick)
		e.Drain()
	}); n != 0 {
		t.Errorf("After+fire of a bound func allocates %v times per event, want 0", n)
	}
}

// engineDelayMix is the distribution of post delays measured on the 16-host
// Clos at full load (Advanced, seed 1, 22 ms): the share of posts in each
// power-of-two band [lo, 2*lo) cycles. Credit returns take 16-31 cycles,
// link and crossbar completions 128-4095, traffic emission and timers
// longer. The 0.3% of posts in other bands below 4096 and the 0.14% beyond
// 64k cycles are left out, the latter so that far events do not pile up in
// a standing set of fixed size.
var engineDelayMix = []struct {
	lo    units.Time
	share float64
}{
	{16, 0.257}, {128, 0.265}, {256, 0.146}, {512, 0.094}, {1024, 0.115},
	{2048, 0.103}, {4096, 0.009}, {8192, 0.005}, {16384, 0.002}, {32768, 0.001},
}

// BenchmarkEngine measures the discrete-event core: schedule+fire of one
// event at a realistic pending-set size and delay mix. A standing set of
// 4,096 events (the peak pending count of the full-load Clos run) re-posts
// itself with delays drawn from engineDelayMix, so the engine serves the
// same split of near and far events the simulator gives it.
func BenchmarkEngine(b *testing.B) {
	rng := xrand.New(1)
	var total float64
	for _, band := range engineDelayMix {
		total += band.share
	}
	delays := make([]units.Time, 1<<16)
	for i := range delays {
		x := rng.Float64() * total
		band := engineDelayMix[len(engineDelayMix)-1]
		for _, bd := range engineDelayMix {
			if x < bd.share {
				band = bd
				break
			}
			x -= bd.share
		}
		delays[i] = band.lo + units.Time(rng.Int63n(int64(band.lo)))
	}
	eng := New()
	fired, stopAt := 0, 0
	var step func()
	step = func() {
		eng.After(delays[fired&(len(delays)-1)], step)
		fired++
		if fired == stopAt {
			eng.Stop()
		}
	}
	for i := 0; i < 4096; i++ {
		eng.After(delays[len(delays)-1-i], step)
	}
	// Warm up until the set holds its steady mix of near and far events.
	stopAt = 200_000
	eng.Drain()
	b.ResetTimer()
	stopAt += b.N
	eng.Drain()
	b.ReportMetric(1, "events/op")
}
