// Package metrics is the simulator's always-on metrics plane: counters,
// gauges and log-bucketed histograms that are cheap enough to leave
// compiled into every hot path, deterministic enough to be part of the
// byte-identical replay contract, and shardable with the same
// Clone/Absorb discipline as internal/trace.
//
// Design rules, in the order they were chosen:
//
//   - One counter per fact. Simulator components keep the plain
//     counters their results are built from and never import this
//     package; the network layer publishes them, storing each shard's
//     running totals into its Set (Counter.Store) at every publish. Only
//     facts no component counts are recorded at event time, through
//     typed instrument pointers (*Counter, *Gauge, *Histogram) that are
//     nil when metrics are off; every method is nil-safe, so a disabled
//     site is a single pointer comparison. No site allocates, ever.
//   - Recording is shard-local and lock-free. A Registry only defines the
//     schema (instrument names, help strings, render order); the values
//     live in per-shard Sets. Each shard's engine goroutine is the only
//     writer of its Set, so the hot path is a plain integer increment.
//   - Reads never touch live state. A shard publishes an immutable
//     Snapshot of its Set at deterministic instants (telemetry probe
//     ticks, end of run) via an atomic pointer; the wall-clock HTTP
//     scrape handler merges the latest published snapshots. The
//     simulation never observes the scraper and the scraper never
//     observes a torn value, so serving /metrics cannot perturb a run.
//   - Merging is order-independent integer arithmetic. Counters and
//     histogram buckets sum; gauges sum (or take the max, for quantities
//     like the simulation clock that are per-shard replicas of one
//     global value). The merged output is therefore byte-identical at
//     any shard count — except for instruments registered PerEngine
//     (engine event counts, heap depths), whose values depend on the
//     shard layout by construction and which the deterministic renderer
//     excludes, mirroring how trace.Telemetry treats EngineSamples.
//
// Histograms are HDR-style log-linear: 8 sub-buckets per power of two
// (fixed arrays indexed with bits.Len64, no floating point, no map), a
// dedicated zero bucket, and a mirrored negative range so deadline slack
// — which goes negative exactly when it matters — keeps full resolution
// on both sides of zero. Relative bucket error is bounded by 1/8.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Kind classifies an instrument.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// GaugeMerge selects how per-shard gauge values combine in Gather.
type GaugeMerge uint8

// Gauge merge modes: sum shard values (queue depths, reserved bandwidth)
// or take the maximum (per-shard replicas of one global quantity, like
// the simulation clock at a publish boundary).
const (
	MergeSum GaugeMerge = iota
	MergeMax
)

// Desc describes one registered instrument.
type Desc struct {
	// Name is the Prometheus metric name ([a-zA-Z_:][a-zA-Z0-9_:]*).
	Name string
	// Label is an optional static label set rendered verbatim inside
	// braces, e.g. `class="control"`. Several instruments may share a
	// Name with distinct Labels; they render as one metric family.
	Label string
	// Help is the one-line # HELP text.
	Help string
	// Kind is the instrument type.
	Kind Kind
	// PerEngine marks instruments whose value depends on the shard
	// layout (engine event counts, per-engine heap depths). They are
	// served on the scrape endpoint but excluded from WriteDeterministic,
	// which is what the byte-identical cross-shard contract compares.
	PerEngine bool
	// Merge is the gauge merge mode (gauges only).
	Merge GaugeMerge

	slot int // index within the instrument's kind
}

// Opt modifies a Desc at registration.
type Opt func(*Desc)

// WithLabel attaches a static label set (e.g. `class="control"`).
func WithLabel(label string) Opt { return func(d *Desc) { d.Label = label } }

// PerEngine marks the instrument shard-layout-dependent (see Desc).
func PerEngine() Opt { return func(d *Desc) { d.PerEngine = true } }

// WithMax gives a gauge max-merge semantics across shards.
func WithMax() Opt { return func(d *Desc) { d.Merge = MergeMax } }

// Registry holds the instrument schema and the live per-shard Sets.
// Registration and Set management take a mutex; recording never does.
type Registry struct {
	mu     sync.Mutex
	descs  []Desc
	byKey  map[string]int
	counts [3]int // instruments per kind
	sets   []*Set
	base   *Snapshot // folded history from Rotate (cross-epoch accumulation)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]int)}
}

// Typed instrument ids, returned by registration and resolved against a
// Set. The zero value of each id type is a valid instrument (the first
// registered of its kind), so ids must always come from registration.
type (
	CounterID   int
	GaugeID     int
	HistogramID int
)

func (r *Registry) register(name, help string, kind Kind, opts []Opt) int {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	d := Desc{Name: name, Help: help, Kind: kind}
	for _, o := range opts {
		o(&d)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := d.Name + "{" + d.Label + "}"
	if i, ok := r.byKey[key]; ok {
		// Idempotent re-registration (a soak re-registers the schema
		// every epoch); the kind must agree or the schema is buggy.
		if r.descs[i].Kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as kind %d (was %d)", key, kind, r.descs[i].Kind))
		}
		return r.descs[i].slot
	}
	if len(r.sets) > 0 || r.base != nil {
		panic(fmt.Sprintf("metrics: %s registered after the first Set was created", key))
	}
	d.slot = r.counts[kind]
	r.counts[kind]++
	r.byKey[key] = len(r.descs)
	r.descs = append(r.descs, d)
	return d.slot
}

// Counter registers (or re-resolves) a counter instrument.
func (r *Registry) Counter(name, help string, opts ...Opt) CounterID {
	return CounterID(r.register(name, help, KindCounter, opts))
}

// Gauge registers (or re-resolves) a gauge instrument.
func (r *Registry) Gauge(name, help string, opts ...Opt) GaugeID {
	return GaugeID(r.register(name, help, KindGauge, opts))
}

// Histogram registers (or re-resolves) a histogram instrument.
func (r *Registry) Histogram(name, help string, opts ...Opt) HistogramID {
	return HistogramID(r.register(name, help, KindHistogram, opts))
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// NewSet creates one shard-local instrument set. All instruments must be
// registered before the first Set exists (the schema is frozen from then
// on, so every Set has identical layout).
func (r *Registry) NewSet() *Set {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Set{
		reg:      r,
		counters: make([]Counter, r.counts[KindCounter]),
		gauges:   make([]Gauge, r.counts[KindGauge]),
		hists:    make([]Histogram, r.counts[KindHistogram]),
	}
	r.sets = append(r.sets, s)
	return s
}

// Set holds one shard's instrument values. Exactly one goroutine (the
// shard's engine goroutine) may record into a Set; Publish makes the
// current values visible to concurrent readers.
type Set struct {
	reg      *Registry
	counters []Counter
	gauges   []Gauge
	hists    []Histogram
	pub      atomic.Pointer[Snapshot]
}

// Counter resolves a counter handle. Nil-safe: a nil Set resolves to a
// nil handle, whose methods are no-ops — the disabled path.
func (s *Set) Counter(id CounterID) *Counter {
	if s == nil {
		return nil
	}
	return &s.counters[id]
}

// Gauge resolves a gauge handle (nil-safe, like Counter).
func (s *Set) Gauge(id GaugeID) *Gauge {
	if s == nil {
		return nil
	}
	return &s.gauges[id]
}

// Histogram resolves a histogram handle (nil-safe, like Counter).
func (s *Set) Histogram(id HistogramID) *Histogram {
	if s == nil {
		return nil
	}
	return &s.hists[id]
}

// Publish snapshots the Set's current values and makes the snapshot
// visible to Gather. Only the owning goroutine may call it; the snapshot
// is immutable afterwards. Publishing allocates (one snapshot), so it
// belongs at probe/epoch boundaries, never in per-event code.
func (s *Set) Publish() {
	if s == nil {
		return
	}
	s.pub.Store(s.snapshot())
}

func (s *Set) snapshot() *Snapshot {
	snap := &Snapshot{
		Counters: append([]uint64(nil), countersOf(s.counters)...),
		Gauges:   append([]int64(nil), gaugesOf(s.gauges)...),
		Hists:    make([]HistSnapshot, len(s.hists)),
	}
	for i := range s.hists {
		snap.Hists[i] = s.hists[i].snapshot()
	}
	return snap
}

func countersOf(cs []Counter) []uint64 {
	out := make([]uint64, len(cs))
	for i := range cs {
		out[i] = cs[i].v
	}
	return out
}

func gaugesOf(gs []Gauge) []int64 {
	out := make([]int64, len(gs))
	for i := range gs {
		out[i] = gs[i].v
	}
	return out
}

// Counter is a monotonically increasing uint64. All methods are nil-safe;
// the nil receiver is the disabled instrument.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Store sets the count to v, a running total kept elsewhere (the
// publisher copies a component's own counter instead of bumping a twin).
func (c *Counter) Store(v uint64) {
	if c != nil {
		c.v = v
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous int64. All methods are nil-safe.
type Gauge struct{ v int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Add adds d.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v += d
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram bucket layout: a zero bucket at index 0, exact buckets for
// magnitudes 1..7, then 8 log-linear sub-buckets per power of two up to
// 2^63, in fixed arrays — 496 buckets per sign. Everything is integer
// arithmetic on the hot path.
const histBuckets = 496

// Histogram records int64 observations (nanoseconds, bytes, depths) in
// log-linear buckets with a mirrored negative range. All methods are
// nil-safe; Observe on a live histogram is two increments, one add and a
// bits.Len64.
type Histogram struct {
	count uint64
	sum   int64
	pos   [histBuckets]uint64 // pos[0] is the zero bucket
	neg   [histBuckets]uint64 // neg[i] counts -v with magnitude bucket i
}

// bucketOf maps a magnitude m >= 1 to its bucket index in [1, 495].
func bucketOf(m uint64) int {
	e := bits.Len64(m)
	if e <= 3 {
		return int(m) // exact buckets for 1..7
	}
	return ((e - 4) << 3) + 8 + int((m>>(e-4))&7)
}

// bucketUpper returns the largest magnitude bucket idx contains.
func bucketUpper(idx int) int64 {
	if idx < 8 {
		return int64(idx)
	}
	e := ((idx - 8) >> 3) + 4
	sub := uint64(idx-8) & 7
	hi := (9+sub)<<(e-4) - 1
	if hi > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(hi)
}

// Observe records v.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += v
	switch {
	case v >= 0:
		if v == 0 {
			h.pos[0]++
		} else {
			h.pos[bucketOf(uint64(v))]++
		}
	default:
		h.neg[bucketOf(uint64(-v))]++
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// snapshot lists the non-empty buckets in ascending Upper order without
// sorting: negative magnitude buckets from the largest magnitude down,
// then the zero bucket and the positive ones upwards.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count, Sum: h.sum}
	n := 0
	for i := range h.pos {
		if h.pos[i] != 0 {
			n++
		}
		if h.neg[i] != 0 {
			n++
		}
	}
	if n == 0 {
		return s
	}
	s.Buckets = make([]HistBucket, 0, n)
	for i := len(h.neg) - 1; i >= 1; i-- {
		if c := h.neg[i]; c != 0 {
			// A negative magnitude bucket [lo, hi] holds values in
			// [-hi, -lo]; its inclusive upper bound is -lo.
			lo := int64(1)
			if i > 1 {
				lo = bucketUpper(i-1) + 1
			}
			s.Buckets = append(s.Buckets, HistBucket{Upper: -lo, Count: c})
		}
	}
	for i, c := range h.pos {
		if c != 0 {
			s.Buckets = append(s.Buckets, HistBucket{Upper: bucketUpper(i), Count: c})
		}
	}
	return s
}

// HistBucket is one non-empty histogram bucket: Count observations with
// value <= Upper (and greater than the previous bucket's Upper).
type HistBucket struct {
	Upper int64
	Count uint64
}

// HistSnapshot is an immutable histogram state: non-empty buckets in
// ascending Upper order.
type HistSnapshot struct {
	Count   uint64
	Sum     int64
	Buckets []HistBucket
}

// merge adds o into h, bucket-wise (order-independent).
func (h *HistSnapshot) merge(o HistSnapshot) {
	h.Count += o.Count
	h.Sum += o.Sum
	merged := make([]HistBucket, 0, len(h.Buckets)+len(o.Buckets))
	i, j := 0, 0
	for i < len(h.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(h.Buckets) && h.Buckets[i].Upper < o.Buckets[j].Upper):
			merged = append(merged, h.Buckets[i])
			i++
		case i >= len(h.Buckets) || o.Buckets[j].Upper < h.Buckets[i].Upper:
			merged = append(merged, o.Buckets[j])
			j++
		default:
			merged = append(merged, HistBucket{h.Buckets[i].Upper, h.Buckets[i].Count + o.Buckets[j].Count})
			i++
			j++
		}
	}
	h.Buckets = merged
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]) from
// the bucket boundaries, or 0 when empty.
func (h *HistSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.Count))
	if rank >= h.Count {
		rank = h.Count - 1
	}
	var seen uint64
	for _, b := range h.Buckets {
		seen += b.Count
		if seen > rank {
			return b.Upper
		}
	}
	return h.Buckets[len(h.Buckets)-1].Upper
}

// Snapshot is an immutable copy of one Set's (or a merge of several
// Sets') values, in schema slot order.
type Snapshot struct {
	Counters []uint64
	Gauges   []int64
	Hists    []HistSnapshot
}

// merge folds o into s according to each gauge's merge mode.
func (s *Snapshot) merge(o *Snapshot, descs []Desc) {
	for i := range s.Counters {
		s.Counters[i] += o.Counters[i]
	}
	for _, d := range descs {
		if d.Kind != KindGauge {
			continue
		}
		switch d.Merge {
		case MergeMax:
			if o.Gauges[d.slot] > s.Gauges[d.slot] {
				s.Gauges[d.slot] = o.Gauges[d.slot]
			}
		default:
			s.Gauges[d.slot] += o.Gauges[d.slot]
		}
	}
	for i := range s.Hists {
		s.Hists[i].merge(o.Hists[i])
	}
}

func (r *Registry) empty() *Snapshot {
	return &Snapshot{
		Counters: make([]uint64, r.counts[KindCounter]),
		Gauges:   make([]int64, r.counts[KindGauge]),
		Hists:    make([]HistSnapshot, r.counts[KindHistogram]),
	}
}

// Gather merges the folded history (Rotate) with every live Set's most
// recently published snapshot. Safe to call from any goroutine at any
// time; Sets that have never published contribute nothing.
func (r *Registry) Gather() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gatherLocked()
}

func (r *Registry) gatherLocked() *Snapshot {
	out := r.empty()
	if r.base != nil {
		out.merge(r.base, r.descs)
	}
	for _, s := range r.sets {
		if snap := s.pub.Load(); snap != nil {
			out.merge(snap, r.descs)
		}
	}
	return out
}

// Rotate folds the live Sets' current values into the registry's base
// snapshot and detaches them, so a sequence of runs (soak epochs)
// accumulates counters and histograms across epochs while each run gets
// fresh Sets. It must only be called when no shard goroutine is
// recording (between runs). Gauges keep their merged final values.
func (r *Registry) Rotate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.descs) == 0 {
		// Nothing registered yet (a soak rotates before its first epoch):
		// folding now would freeze the empty schema and break the
		// registration that is about to happen.
		return
	}
	for _, s := range r.sets {
		s.pub.Store(s.snapshot())
	}
	r.base = r.gatherLocked()
	r.sets = nil
}

// Descs returns the registered instrument descriptors in registration
// (render) order. The returned slice is shared; do not mutate.
func (r *Registry) Descs() []Desc {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.descs
}

// value extracts desc d's value from snap.
func (d *Desc) counterValue(snap *Snapshot) uint64 { return snap.Counters[d.slot] }
func (d *Desc) gaugeValue(snap *Snapshot) int64    { return snap.Gauges[d.slot] }
func (d *Desc) histValue(snap *Snapshot) *HistSnapshot {
	return &snap.Hists[d.slot]
}
