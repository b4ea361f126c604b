// Package parsim implements conservative parallel discrete-event
// simulation (PDES) over the single-goroutine engines of internal/sim.
//
// The model is partitioned into logical processes (LPs) — the network
// layer makes one per shard of switches and hosts — each owning a private
// sim.Engine. Events that cross a shard boundary (link arrivals, credit
// returns, receiver reports) are relayed as timestamped Messages through
// per-directed-pair mailbox Queues instead of being scheduled directly.
//
// Synchronisation is the classic conservative window protocol. Link
// propagation latency gives a nonzero lookahead L: an event executing at
// time t can only emit cross-shard messages firing at t+L or later. Each
// round, every LP publishes the earliest thing it could do next (its
// engine's head event or an undrained inbound message); a barrier makes
// the global minimum m visible to all; every LP then drains inbound
// messages up to and runs its engine through windowEnd = min(m+L−1,
// horizon). Nothing generated inside the window can land inside it, so no
// LP ever receives an event in its past — no rollback, no anti-messages.
//
// Determinism is the design's correctness bar, not just safety: with the
// channel-keyed event order of sim.Engine (see Engine.AtChannel) a
// sharded run executes, per shard, exactly the sequential run's total
// order restricted to that shard's events, making stats, traces and
// conservation records byte-identical to the sequential engine's. The
// argument is spelled out in DESIGN.md §9.
package parsim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"deadlineqos/internal/sim"
	"deadlineqos/internal/units"
)

// Message is one relayed cross-shard event: Payload must be posted on the
// receiving LP's engine at Fire on ordering channel Ch.
type Message struct {
	Fire    units.Time
	Ch      uint32
	Payload sim.Payload
	fifo    uint64 // arrival order within the queue, the final tie-break
}

// Queue is the mailbox for one directed shard pair. The sender's goroutine
// Puts while it runs its window; the receiver drains between windows. A
// mutex suffices: the window protocol guarantees every message put during
// a window fires after that window, so drain and put never contend for the
// same message.
type Queue struct {
	mu       sync.Mutex
	pending  []Message
	nextFifo uint64
}

// Put enqueues the typed event pl firing at fire on channel ch.
func (q *Queue) Put(fire units.Time, ch uint32, pl sim.Payload) {
	q.mu.Lock()
	q.pending = append(q.pending, Message{Fire: fire, Ch: ch, Payload: pl, fifo: q.nextFifo})
	q.nextFifo++
	q.mu.Unlock()
}

// MinFire returns the earliest firing time among pending messages; ok is
// false when the queue is empty.
func (q *Queue) MinFire() (min units.Time, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := range q.pending {
		if !ok || q.pending[i].Fire < min {
			min, ok = q.pending[i].Fire, true
		}
	}
	return min, ok
}

// TakeUpTo appends every pending message with Fire <= t to into and
// removes them from the queue, returning the extended slice.
func (q *Queue) TakeUpTo(t units.Time, into []Message) []Message {
	q.mu.Lock()
	kept := q.pending[:0]
	for _, m := range q.pending {
		if m.Fire <= t {
			into = append(into, m)
		} else {
			kept = append(kept, m)
		}
	}
	for i := len(kept); i < len(q.pending); i++ {
		q.pending[i].Payload = sim.Payload{} // release taken packets
	}
	q.pending = kept
	q.mu.Unlock()
	return into
}

// LP is one logical process: a shard's engine plus the mailboxes feeding
// it from other shards.
type LP struct {
	Eng *sim.Engine
	In  []*Queue

	drain []Message // scratch, reused across windows
}

// barrier is a spinning sense-reversing barrier. Spinning keeps the
// per-window cost to a few hundred nanoseconds (windows are ~lookahead
// long, so there are millions of them); the Gosched fallback keeps it
// live-lock-free under GOMAXPROCS < number of LPs.
type barrier struct {
	n   int32
	cnt atomic.Int32
	gen atomic.Uint32
}

func (b *barrier) wait() {
	g := b.gen.Load()
	if b.cnt.Add(1) == b.n {
		b.cnt.Store(0)
		b.gen.Add(1)
		return
	}
	for spins := 0; b.gen.Load() == g; spins++ {
		if spins > 1000 {
			runtime.Gosched()
		}
	}
}

// padded keeps each LP's published time on its own cache line.
type padded struct {
	v atomic.Int64
	_ [7]int64
}

// Run drives every LP's engine from its current time through horizon
// using the conservative window protocol, then returns with all engines'
// clocks at horizon. lookahead must be >= 1: it is the minimum latency of
// any cross-shard effect (the network derives it from link propagation
// and ack delays). If an engine stops itself (sim.Engine.Stop) the stop
// propagates to all LPs at the end of that window — a safety valve; the
// deterministic-replay guarantee covers fixed-horizon runs, which is how
// the network always drives it.
func Run(lps []*LP, horizon, lookahead units.Time) {
	if lookahead < 1 {
		panic(fmt.Sprintf("parsim: lookahead %v < 1 cycle", lookahead))
	}
	if len(lps) == 1 {
		lps[0].Eng.Run(horizon)
		return
	}
	next := make([]padded, len(lps))
	bar := &barrier{n: int32(len(lps))}
	var stopFlag atomic.Bool
	idle := int64(horizon) + 1 // sentinel: nothing to do before the horizon

	var wg sync.WaitGroup
	for i := range lps {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			lp := lps[me]
			for {
				// Publish the earliest event this LP could execute. All
				// LPs are between windows here, so queue minima are
				// stable.
				t := idle
				if at, ok := lp.Eng.PeekTime(); ok && int64(at) < t {
					t = int64(at)
				}
				for _, q := range lp.In {
					if at, ok := q.MinFire(); ok && int64(at) < t {
						t = int64(at)
					}
				}
				next[me].v.Store(t)
				bar.wait()

				m := idle
				for j := range next {
					if v := next[j].v.Load(); v < m {
						m = v
					}
				}
				if m == idle {
					// Every LP agrees nothing fires before the horizon.
					lp.Eng.Run(horizon)
					return
				}
				windowEnd := units.Time(m) + lookahead - 1
				if windowEnd > horizon {
					windowEnd = horizon
				}

				// Drain inbound messages into the engine. Sorting by
				// (fire, channel, queue order) before scheduling gives the
				// relayed events ascending engine seqs in exactly the
				// order the channel-keyed comparison needs; cross-queue
				// ties on (fire, channel) cannot occur because each
				// channel id is produced by exactly one sender shard.
				lp.drain = lp.drain[:0]
				for _, q := range lp.In {
					lp.drain = q.TakeUpTo(windowEnd, lp.drain)
				}
				slices.SortFunc(lp.drain, compareMessages)
				for i := range lp.drain {
					lp.Eng.Post(lp.drain[i].Fire, lp.drain[i].Ch, lp.drain[i].Payload)
					lp.drain[i].Payload = sim.Payload{}
				}

				lp.Eng.Run(windowEnd)
				if lp.Eng.Stopped() {
					stopFlag.Store(true)
				}
				bar.wait()
				if stopFlag.Load() {
					return
				}
				if windowEnd >= horizon {
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// compareMessages orders drained messages by (fire, channel, queue order).
func compareMessages(x, y Message) int {
	switch {
	case x.Fire != y.Fire:
		return cmp.Compare(x.Fire, y.Fire)
	case x.Ch != y.Ch:
		return cmp.Compare(x.Ch, y.Ch)
	default:
		return cmp.Compare(x.fifo, y.fifo)
	}
}
