// Package trace implements packet-lifecycle tracing, time-series telemetry
// and engine profiling for the simulator — the observability substrate that
// makes the paper's mechanisms (deadline slack at every hop, order errors,
// take-over recoveries, §3.4–§4.4) inspectable as events over time instead
// of end-of-run aggregates.
//
// The design mirrors how SCED-style analyses reason about per-hop deadline
// slack and how heavy-traffic EDF results are stated in terms of lead-time
// distributions: every recorded event carries the packet's slack (deadline
// minus the recording node's local clock) at that instant.
//
// Tracing is opt-in and sampled. Components hold a *Tracer pointer that is
// nil when tracing is off; every call site guards with a nil check, so a
// disabled tracer costs one pointer comparison per event site (zero
// allocations, zero work). Whether a packet is sampled is decided once at
// generation time by a deterministic hash of (seed, packet id), so the same
// seed and sample rate always select the same packets and produce the
// byte-identical event stream — tracing inherits the simulator's
// replayability guarantee.
//
// Exports: newline-delimited JSON (one event per line, stable field order)
// and Chrome trace_event JSON loadable in Perfetto (ui.perfetto.dev), where
// each sampled packet renders as one track of per-hop spans with instant
// markers for take-overs, order errors, drops and delivery.
package trace

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"

	"deadlineqos/internal/packet"
	"deadlineqos/internal/paged"
	"deadlineqos/internal/units"
)

// Kind enumerates the packet-lifecycle points a Tracer records.
type Kind uint8

// Lifecycle event kinds. Host-side kinds carry the host id in Node;
// switch-side kinds carry the switch id. The kinds up to KindLinkTx each
// open a span of the Chrome export, which lasts until the packet's next
// such event or its end.
const (
	// KindGenerated: the NIC stamped the packet's deadline (host event).
	KindGenerated Kind = iota
	// KindEligibleHold: the packet was staged to wait for its eligible
	// time (host event; only under eligible-time shaping).
	KindEligibleHold
	// KindInjected: the packet's first byte entered the network (host).
	KindInjected
	// KindVOQEnqueue: the packet joined an input VOQ (switch event; Port
	// is the input port, Out the VOQ's output port).
	KindVOQEnqueue
	// KindVOQDequeue: the scheduler popped the packet from its VOQ into
	// the crossbar (switch event; Slack here is the paper's per-hop slack
	// at dequeue).
	KindVOQDequeue
	// KindOutputEnqueue: the crossbar transfer completed and the packet
	// entered the output buffer (switch event).
	KindOutputEnqueue
	// KindLinkTx: the packet started serialising on the output link
	// (switch event).
	KindLinkTx
	// KindTakeOver: the packet arrived with a deadline below the ordered
	// queue's tail and diverted to the take-over queue (switch event).
	KindTakeOver
	// KindOrderError: a dequeue emitted this packet although the buffer
	// held a smaller deadline (switch event; requires TrackOrderErrors).
	KindOrderError
	// KindCRCDrop: the destination NIC's end-to-end CRC check dropped a
	// corrupted copy (host event).
	KindCRCDrop
	// KindLinkDrop: a copy was lost in flight to a link flap.
	KindLinkDrop
	// KindSwitchDrop: a copy was discarded from a switch's buffers or
	// crossbar when a SwitchDown fault killed the switch (switch event).
	KindSwitchDrop
	// KindRetransmit: a retransmit copy was queued at the source (host).
	KindRetransmit
	// KindDupDrop: the destination dropped a duplicate copy (host event).
	KindDupDrop
	// KindDemoted: the packet was demoted to the best-effort VC (host).
	KindDemoted
	// KindDelivered: the packet reached its destination NIC (host event;
	// Slack is the delivery slack, deadline − delivery time).
	KindDelivered
	// KindNICEvict: a bounded injection queue discarded the packet before
	// it entered the network (host event; value-drop policies only).
	KindNICEvict
	// KindPoliced: the ingress policer demoted the packet to the
	// best-effort VC for violating its flow's reservation (host event;
	// recorded right after KindGenerated, with the demoted VC).
	KindPoliced
	numKinds
)

var kindLabels = [numKinds]string{
	"gen", "elig-hold", "inject", "voq-enq", "voq-deq", "out-enq",
	"link-tx", "takeover", "order-err", "crc-drop", "link-drop",
	"switch-drop", "retx", "dup-drop", "demote", "deliver", "nic-evict",
	"police",
}

// String returns the short label used in JSONL output.
func (k Kind) String() string {
	if int(k) < len(kindLabels) {
		return kindLabels[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one recorded lifecycle point of a sampled packet. Times are on
// the engine's oracle clock; Slack is deadline − local clock of the node
// that recorded the event (the quantity the paper's per-hop EDF decisions
// inspect).
type Event struct {
	T     units.Time // oracle time of the event
	Kind  Kind
	Pkt   uint64
	Flow  packet.FlowID
	Class packet.Class
	VC    packet.VC
	Seq   uint64
	Src   int
	Dst   int
	Node  int        // host id (host kinds) or switch id (switch kinds); -1 unknown
	Port  int        // port within Node; -1 when not applicable
	Out   int        // destination output port (VOQ kinds); -1 otherwise
	Hop   int        // route hop index at the event
	Slack units.Time // deadline − recording node's local clock
	Size  units.Size
}

// appendJSON renders the event as one JSON object with a fixed field
// order, so identical event streams serialise byte-identically.
func (e *Event) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, int64(e.T), 10)
	dst = append(dst, `,"k":"`...)
	dst = append(dst, e.Kind.String()...)
	dst = append(dst, `","pkt":`...)
	dst = strconv.AppendUint(dst, e.Pkt, 10)
	dst = append(dst, `,"flow":`...)
	dst = strconv.AppendUint(dst, uint64(e.Flow), 10)
	dst = append(dst, `,"cls":"`...)
	dst = append(dst, e.Class.String()...)
	dst = append(dst, `","vc":`...)
	dst = strconv.AppendUint(dst, uint64(e.VC), 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"src":`...)
	dst = strconv.AppendInt(dst, int64(e.Src), 10)
	dst = append(dst, `,"dst":`...)
	dst = strconv.AppendInt(dst, int64(e.Dst), 10)
	dst = append(dst, `,"node":`...)
	dst = strconv.AppendInt(dst, int64(e.Node), 10)
	dst = append(dst, `,"port":`...)
	dst = strconv.AppendInt(dst, int64(e.Port), 10)
	dst = append(dst, `,"out":`...)
	dst = strconv.AppendInt(dst, int64(e.Out), 10)
	dst = append(dst, `,"hop":`...)
	dst = strconv.AppendInt(dst, int64(e.Hop), 10)
	dst = append(dst, `,"slack":`...)
	dst = strconv.AppendInt(dst, int64(e.Slack), 10)
	dst = append(dst, `,"size":`...)
	dst = strconv.AppendInt(dst, int64(e.Size), 10)
	dst = append(dst, '}')
	return dst
}

// Config parameterises a Tracer.
type Config struct {
	// SampleRate is the fraction of generated packets traced, in [0, 1].
	// Sampling is per logical packet: retransmit copies inherit the
	// original's decision through the Sampled header bit they copy.
	SampleRate float64
	// Seed salts the sampling hash. Use the run's traffic seed to make
	// the sampled set a pure function of the run configuration.
	Seed uint64
	// MaxEvents caps the stored event count (default 1<<20): the
	// tracer keeps the first MaxEvents events in the canonical (time,
	// line) order WriteJSONL emits and counts the rest in Dropped,
	// bounding memory on runaway configurations. The kept set is the
	// same whether the run was split across shards or not.
	MaxEvents int
	// Flight, when non-nil, tees every recorded event into a fixed-size
	// ring of recent events (see FlightRecorder). Shard clones get their
	// own ring clone; Absorb folds them back.
	Flight *FlightRecorder
	// DiscardEvents disables in-memory event storage: Record still feeds
	// the aggregates and the flight ring, but keeps no event list. Used
	// when a tracer exists only to drive the flight recorder at full
	// sampling without holding the whole run in memory.
	DiscardEvents bool
}

// DefaultMaxEvents is the event-store cap when Config.MaxEvents is zero.
const DefaultMaxEvents = 1 << 20

// Tracer records lifecycle events for sampled packets. One Tracer belongs
// to exactly one simulation run (the engine is single-threaded; a Tracer is
// not safe for concurrent use across runs).
type Tracer struct {
	cfg       Config
	threshold uint64 // hash < threshold => sampled
	// log holds the events this tracer recorded, in pages, and absorbed
	// the logs Absorb moved in from shard clones. A log is in recording
	// order, which is time order, because every event is stamped with
	// the recording engine's clock.
	log      paged.Array[Event]
	absorbed []paged.Array[Event]
	// limit is Infinity until log holds MaxEvents events, then the time
	// of the last of them: events at that instant are still stored,
	// later ones are dropped. So a shard's log holds every event that
	// can be among the first MaxEvents of the whole run, and cut makes
	// the final choice.
	limit   units.Time
	dropped uint64
	sampled uint64 // stored KindGenerated events, i.e. sampled packet count

	hopSlack []slackAgg      // per route-hop aggregation of dequeue slack
	flight   *FlightRecorder // recent-event ring (nil = off)
}

// slackAgg is a tiny online aggregate (count/sum/min/max) kept per hop.
// Slack values are integer nanoseconds and the aggregate stays integer, so
// merging shard tracers (Absorb) is exact and order-independent; the mean
// is derived on demand.
type slackAgg struct {
	n        uint64
	sum      int64
	min, max int64
}

func (a *slackAgg) add(v int64) {
	if a.n == 0 || v < a.min {
		a.min = v
	}
	if a.n == 0 || v > a.max {
		a.max = v
	}
	a.n++
	a.sum += v
}

func (a *slackAgg) merge(o slackAgg) {
	if o.n == 0 {
		return
	}
	if a.n == 0 {
		*a = o
		return
	}
	if o.min < a.min {
		a.min = o.min
	}
	if o.max > a.max {
		a.max = o.max
	}
	a.n += o.n
	a.sum += o.sum
}

// New validates cfg and returns a Tracer.
func New(cfg Config) (*Tracer, error) {
	if cfg.SampleRate < 0 || cfg.SampleRate > 1 {
		return nil, fmt.Errorf("trace: sample rate %v out of [0, 1]", cfg.SampleRate)
	}
	if cfg.MaxEvents < 0 {
		return nil, fmt.Errorf("trace: negative event cap %d", cfg.MaxEvents)
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = DefaultMaxEvents
	}
	t := &Tracer{cfg: cfg, flight: cfg.Flight, limit: units.Infinity}
	switch {
	case cfg.SampleRate >= 1:
		t.threshold = ^uint64(0)
	default:
		t.threshold = uint64(cfg.SampleRate * float64(1<<63) * 2)
	}
	return t, nil
}

// splitmix64 is the finaliser of SplitMix64 — a cheap, well-distributed
// 64-bit hash used for the per-packet sampling decision.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SampleID reports whether the packet with the given id is sampled. The
// decision is a pure function of (seed, id): same seed and rate always
// select the same packets. Nil-safe (a nil Tracer samples nothing).
func (t *Tracer) SampleID(id uint64) bool {
	if t == nil || t.threshold == 0 {
		return false
	}
	if t.threshold == ^uint64(0) {
		return true
	}
	return splitmix64(t.cfg.Seed^(id*0x9e3779b97f4a7c15)) < t.threshold
}

// Record stores one event. Callers are expected to have checked both the
// tracer pointer and the packet's Sampled bit; Record itself is still
// nil-safe so cold paths can call it unconditionally.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	if ev.Kind == KindVOQDequeue {
		for len(t.hopSlack) <= ev.Hop {
			t.hopSlack = append(t.hopSlack, slackAgg{})
		}
		t.hopSlack[ev.Hop].add(int64(ev.Slack))
	}
	if t.flight != nil {
		t.flight.record(ev)
	}
	if t.cfg.DiscardEvents {
		if ev.Kind == KindGenerated {
			t.sampled++
		}
		return
	}
	if ev.T > t.limit {
		t.dropped++
		return
	}
	if ev.Kind == KindGenerated {
		t.sampled++
	}
	t.log.Push(ev)
	if t.log.Len() == t.cfg.MaxEvents {
		t.limit = ev.T
	}
}

// eachLog calls fn for the tracer's own log, then for each absorbed one.
func (t *Tracer) eachLog(fn func(*paged.Array[Event])) {
	fn(&t.log)
	for i := range t.absorbed {
		fn(&t.absorbed[i])
	}
}

// each calls fn for every stored event, log by log in recording order.
func (t *Tracer) each(fn func(*Event)) {
	t.eachLog(func(l *paged.Array[Event]) {
		for i := 0; i < l.Len(); i++ {
			fn(l.At(i))
		}
	})
}

// stored returns the number of stored events.
func (t *Tracer) stored() int {
	n := 0
	t.eachLog(func(l *paged.Array[Event]) { n += l.Len() })
	return n
}

// cut keeps the first MaxEvents stored events in the canonical (time,
// line) order and counts the rest as dropped. Every reader calls it
// first; it does nothing while the cap does not bind.
func (t *Tracer) cut() {
	n := t.stored()
	if n <= t.cfg.MaxEvents {
		return
	}
	times := make([]units.Time, 0, n)
	t.each(func(ev *Event) { times = append(times, ev.T) })
	slices.Sort(times)
	at := times[t.cfg.MaxEvents-1]
	room := t.cfg.MaxEvents - sort.Search(n, func(i int) bool { return times[i] >= at })
	// Of the events at the cut instant, the first room in line order stay.
	var lines []string
	t.each(func(ev *Event) {
		if ev.T == at {
			lines = append(lines, string(ev.appendJSON(nil)))
		}
	})
	sort.Strings(lines)
	keep := make(map[string]int, room)
	for _, l := range lines[:room] {
		keep[l]++
	}
	take := func(ev *Event) bool {
		line := string(ev.appendJSON(nil))
		if keep[line] == 0 {
			return false
		}
		keep[line]--
		return true
	}
	t.eachLog(func(l *paged.Array[Event]) {
		w := 0
		for r := 0; r < l.Len(); r++ {
			ev := l.At(r)
			if ev.T < at || ev.T == at && take(ev) {
				*l.At(w) = *ev
				w++
				continue
			}
			t.dropped++
			if ev.Kind == KindGenerated {
				t.sampled--
			}
		}
		l.Truncate(w)
	})
}

// Len returns the number of stored events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.cut()
	return t.stored()
}

// Each calls fn with every stored event, after the event cap's cut, each
// log in recording order and the logs of shard clones in the order
// Absorb took them. It builds no copy of the log.
func (t *Tracer) Each(fn func(Event)) {
	if t == nil {
		return
	}
	t.cut()
	t.each(func(ev *Event) { fn(*ev) })
}

// Dropped returns how many events the event cap discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.cut()
	return t.dropped
}

// SampledPackets returns how many sampled packets have their generation
// event stored (every sampled packet while the event cap does not bind).
func (t *Tracer) SampledPackets() uint64 {
	if t == nil {
		return 0
	}
	t.cut()
	return t.sampled
}

// Clone returns an empty Tracer with the same configuration and sampling
// threshold. The sharded network hands each shard a clone of the run's
// tracer so recording stays single-goroutine, then folds them back into
// the original with Absorb. Nil-safe (a nil Tracer clones to nil).
func (t *Tracer) Clone() *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{cfg: t.cfg, threshold: t.threshold, flight: t.flight.Clone(), limit: units.Infinity}
}

// Flight returns the tracer's flight-recorder ring (nil when off). In a
// sharded run each tracer clone has its own ring; event-time trip
// decisions (the deadline-miss-burst SLO) call Trip on the shard's own
// ring, and Absorb folds trip state back to the root.
func (t *Tracer) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.flight
}

// Absorb merges other's recorded state into t: other's event logs move
// over page by page, without copying an event, and the drop/sample
// counters and per-hop slack aggregates are summed (all integer, so the
// result is independent of absorb order). other is drained and must not
// record afterwards.
func (t *Tracer) Absorb(other *Tracer) {
	if t == nil || other == nil {
		return
	}
	t.absorbed = append(append(t.absorbed, other.log), other.absorbed...)
	t.dropped += other.dropped
	t.sampled += other.sampled
	t.flight.Absorb(other.flight)
	for hop, a := range other.hopSlack {
		for len(t.hopSlack) <= hop {
			t.hopSlack = append(t.hopSlack, slackAgg{})
		}
		t.hopSlack[hop].merge(a)
	}
	other.log, other.absorbed = paged.Array[Event]{}, nil
	other.hopSlack = nil
}

// WriteJSONL writes one JSON object per event. Lines are emitted in the
// canonical (time, line-bytes) order rather than recording order, so two
// tracers holding the same multiset of events — a sequential run and a
// merged sharded run — produce byte-identical output (the replayability
// contract tested in internal/network). The fixed field order of the
// rendering makes the per-line bytes themselves stable. Every log is in
// time order, so the logs are merged by time and only one instant's
// lines are rendered and sorted at once, in buffers reused throughout.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.cut()
	var logs []*paged.Array[Event]
	t.eachLog(func(l *paged.Array[Event]) { logs = append(logs, l) })
	next := make([]int, len(logs))
	lines, spans := make([]byte, 0, 4<<10), make([][2]int, 0, 64) // one instant's lines
	for {
		at, found := units.Time(0), false
		for i, l := range logs {
			if next[i] < l.Len() && (!found || l.At(next[i]).T < at) {
				at, found = l.At(next[i]).T, true
			}
		}
		if !found {
			return nil
		}
		lines, spans = lines[:0], spans[:0]
		for i, l := range logs {
			for ; next[i] < l.Len() && l.At(next[i]).T == at; next[i]++ {
				start := len(lines)
				lines = append(l.At(next[i]).appendJSON(lines), '\n')
				spans = append(spans, [2]int{start, len(lines)})
			}
		}
		slices.SortFunc(spans, func(a, b [2]int) int {
			return bytes.Compare(lines[a[0]:a[1]], lines[b[0]:b[1]])
		})
		for _, sp := range spans {
			if _, err := w.Write(lines[sp[0]:sp[1]]); err != nil {
				return fmt.Errorf("trace: writing JSONL: %w", err)
			}
		}
	}
}

// HopSlackStat summarises the dequeue slack observed at one route hop
// across all sampled packets: how far ahead of (positive) or past
// (negative) their deadline packets were when the scheduler served them.
type HopSlackStat struct {
	Hop    int
	Count  uint64
	MeanNs float64
	MinNs  float64
	MaxNs  float64
}

// HopSlack returns per-hop dequeue-slack summaries in hop order. Hops with
// no observations are omitted.
func (t *Tracer) HopSlack() []HopSlackStat {
	if t == nil {
		return nil
	}
	var out []HopSlackStat
	for hop, a := range t.hopSlack {
		if a.n == 0 {
			continue
		}
		out = append(out, HopSlackStat{
			Hop: hop, Count: a.n,
			MeanNs: float64(a.sum) / float64(a.n),
			MinNs:  float64(a.min), MaxNs: float64(a.max),
		})
	}
	return out
}
