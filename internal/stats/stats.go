// Package stats collects the performance indices the paper evaluates:
// throughput, latency and jitter per traffic class (§5), the cumulative
// distribution function (CDF) of latency, and frame-level latency for
// multimedia traffic (Figure 3 reports per-frame, not per-packet, latency).
//
// A Collector observes packet injections and deliveries during the
// measurement window (after warm-up) and aggregates per-class metrics.
// All observations use the simulator's oracle clock; nothing here feeds
// back into scheduling.
package stats

import (
	"fmt"
	"math"
	"math/bits"

	"deadlineqos/internal/packet"
	"deadlineqos/internal/units"
)

// Series accumulates count/mean/variance/min/max of a stream of values
// using Welford's online algorithm.
type Series struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add records one value.
func (s *Series) Add(v float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)
}

// Count returns the number of recorded values.
func (s *Series) Count() uint64 { return s.n }

// Mean returns the running mean (0 when empty).
func (s *Series) Mean() float64 { return s.mean }

// Min returns the smallest recorded value (0 when empty).
func (s *Series) Min() float64 { return s.min }

// Max returns the largest recorded value (0 when empty).
func (s *Series) Max() float64 { return s.max }

// StdDev returns the sample standard deviation (0 for fewer than 2 values).
func (s *Series) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Merge folds other into s (parallel-run aggregation).
func (s *Series) Merge(other *Series) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	n := s.n + other.n
	d := other.mean - s.mean
	mean := s.mean + d*float64(other.n)/float64(n)
	m2 := s.m2 + other.m2 + d*d*float64(s.n)*float64(other.n)/float64(n)
	minv := math.Min(s.min, other.min)
	maxv := math.Max(s.max, other.max)
	*s = Series{n: n, mean: mean, m2: m2, min: minv, max: maxv}
}

// TimeSeries accumulates count/sum/min/max and the exact sum of squares of
// a stream of integer time values (nanoseconds). Every accumulator is an
// integer — the sum of squares is kept in 128 bits — so folding per-shard
// series together is exact and order-independent: a sharded run (see
// internal/parsim) reports bit-identical means to a sequential one, which
// the float64 Welford accumulation of Series cannot guarantee. Use Series
// for genuinely real-valued data; use TimeSeries for latencies, slacks and
// the other integer-valued metrics the per-class statistics track.
type TimeSeries struct {
	n          uint64
	sum        int64
	sqHi, sqLo uint64 // 128-bit sum of v*v
	min, max   int64
}

// Add records one value.
func (s *TimeSeries) Add(v units.Time) {
	x := int64(v)
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	s.sum += x
	m := uint64(x)
	if x < 0 {
		m = uint64(-x)
	}
	hi, lo := bits.Mul64(m, m)
	var carry uint64
	s.sqLo, carry = bits.Add64(s.sqLo, lo, 0)
	s.sqHi, _ = bits.Add64(s.sqHi, hi, carry)
}

// Count returns the number of recorded values.
func (s *TimeSeries) Count() uint64 { return s.n }

// Mean returns the mean (0 when empty). The division is the only float
// operation, applied to exact integer accumulators, so equal multisets of
// observations always yield the identical float64.
func (s *TimeSeries) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

// Min returns the smallest recorded value (0 when empty).
func (s *TimeSeries) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.min)
}

// Max returns the largest recorded value (0 when empty).
func (s *TimeSeries) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.max)
}

// StdDev returns the sample standard deviation (0 for fewer than 2 values).
func (s *TimeSeries) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	sq := float64(s.sqHi)*0x1p64 + float64(s.sqLo)
	mean := float64(s.sum) / float64(s.n)
	m2 := sq - mean*float64(s.sum)
	if m2 < 0 {
		m2 = 0 // guard the float cancellation in sq - mean*sum
	}
	return math.Sqrt(m2 / float64(s.n-1))
}

// Merge folds other into s. Integer accumulators make the fold exact and
// order-independent.
func (s *TimeSeries) Merge(other *TimeSeries) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	s.n += other.n
	s.sum += other.sum
	var carry uint64
	s.sqLo, carry = bits.Add64(s.sqLo, other.sqLo, 0)
	s.sqHi, _ = bits.Add64(s.sqHi, other.sqHi, carry)
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// Histogram is a logarithmically bucketed histogram of units.Time values,
// built for latency CDFs spanning nanoseconds to seconds. Resolution is
// bucketsPerOctave buckets per factor-of-two.
//
// Values may be negative (deadline slack of a late packet is below zero):
// negative magnitudes get the same logarithmic resolution as positive
// ones, and all values in the open interval (-1, 1) — for integer times,
// exactly 0 — share one sub-cycle bucket. Bucket indices are ordered
// consistently with the values they hold, so quantiles and CDFs work
// unchanged on signed data.
//
// All per-bucket queries (Quantile, FractionBelow, CDF) resolve to the
// bucket's UPPER bound, never an interpolated value: Quantile(q) is a
// value v such that at least a q-fraction of observations are <= v, and
// it overestimates by at most one bucket width (~9% at 8 buckets per
// octave). The sub-cycle bucket's upper bound is 0, so a histogram whose
// only observations are sub-cycle reports Quantile(q) == 0 for every q —
// indistinguishable from an empty histogram by Quantile alone; check
// Count to tell them apart.
type Histogram struct {
	counts []uint64 // counts[i] holds bucket lo+i
	lo     int
	total  uint64
}

const bucketsPerOctave = 8

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// subCycleBucket holds every observation in (-1, 1).
const subCycleBucket = -1

// bucketOf maps a time to its bucket index. Positive values v >= 1 map to
// b >= 0 exactly as before the signed extension; values in (-1, 1) map to
// the sub-cycle bucket; v <= -1 maps to b <= -2, with more negative
// indices for larger magnitudes, so integer bucket order tracks value
// order everywhere.
func bucketOf(v units.Time) int {
	switch {
	case v >= 1:
		return int(math.Floor(math.Log2(float64(v)) * bucketsPerOctave))
	case v > -1:
		return subCycleBucket
	default:
		k := int(math.Floor(math.Log2(float64(-v)) * bucketsPerOctave))
		return -2 - k
	}
}

// bucketUpper returns the representative (upper bound) value of a bucket.
func bucketUpper(b int) units.Time {
	switch {
	case b >= 0:
		return units.Time(math.Ceil(math.Exp2(float64(b+1) / bucketsPerOctave)))
	case b == subCycleBucket:
		return 0
	default:
		k := -2 - b
		return -units.Time(math.Ceil(math.Exp2(float64(k) / bucketsPerOctave)))
	}
}

// cover widens counts to hold buckets lo through hi.
func (h *Histogram) cover(lo, hi int) {
	n := len(h.counts)
	if n == 0 {
		h.counts, h.lo = make([]uint64, hi-lo+1), lo
		return
	}
	top := h.lo + n - 1
	if lo >= h.lo && hi <= top {
		return
	}
	// Grow each side that needs room by at least the current span, so a
	// range that creeps outward one bucket at a time reallocates only
	// logarithmically often.
	if lo < h.lo {
		lo = min(lo, h.lo-n)
	}
	if hi > top {
		hi = max(hi, top+n)
	}
	lo, hi = min(lo, h.lo), max(hi, top)
	grown := make([]uint64, hi-lo+1)
	copy(grown[h.lo-lo:], h.counts)
	h.counts, h.lo = grown, lo
}

// Add records one observation.
func (h *Histogram) Add(v units.Time) {
	b := bucketOf(v)
	if b < h.lo || b >= h.lo+len(h.counts) {
		h.cover(b, b)
	}
	h.counts[b-h.lo]++
	h.total++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) of the
// recorded values, or 0 when empty.
func (h *Histogram) Quantile(q float64) units.Time {
	if h.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	last := 0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		last = h.lo + i
		if cum >= target {
			break
		}
	}
	return bucketUpper(last)
}

// FractionBelow returns the fraction of observations <= v.
func (h *Histogram) FractionBelow(v units.Time) float64 {
	if h.total == 0 {
		return 0
	}
	vb := bucketOf(v)
	var cum uint64
	for i, c := range h.counts {
		if h.lo+i > vb {
			break
		}
		cum += c
	}
	return float64(cum) / float64(h.total)
}

// CDFPoint is one (latency, cumulative probability) sample of a CDF.
type CDFPoint struct {
	Latency units.Time
	Cum     float64
}

// CDF returns the cumulative distribution as bucket upper-bound points in
// increasing latency order, one per non-empty bucket.
func (h *Histogram) CDF() []CDFPoint {
	pts := make([]CDFPoint, 0, len(h.counts))
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		pts = append(pts, CDFPoint{bucketUpper(h.lo + i), float64(cum) / float64(h.total)})
	}
	return pts
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if len(other.counts) > 0 {
		h.cover(other.lo, other.lo+len(other.counts)-1)
		for i, c := range other.counts {
			h.counts[other.lo-h.lo+i] += c
		}
	}
	h.total += other.total
}

// ClassStats aggregates all indices for one traffic class.
type ClassStats struct {
	GeneratedPackets uint64
	GeneratedBytes   units.Size
	InjectedPackets  uint64
	InjectedBytes    units.Size
	DeliveredPackets uint64
	DeliveredBytes   units.Size

	// Fault/recovery counters (zero in fault-free runs; see
	// internal/faults and the hostif reliability layer).
	CorruptedPackets     uint64 // copies dropped by the receiver CRC check
	LostPackets          uint64 // copies lost in flight to link flaps
	RetransmittedPackets uint64 // retransmit copies queued at sources
	DemotedPackets       uint64 // packets demoted to the best-effort VC
	DuplicateDrops       uint64 // duplicate copies dropped by receivers

	// Eviction/value accounting of value-aware dropping policies
	// (internal/policy): packets shed by a bounded NIC queue before
	// injection, and the exact milli-unit value totals (packet.Value) the
	// weighted-goodput metric is computed from. All integers, so per-shard
	// merging stays exact.
	EvictedPackets uint64
	EvictedBytes   units.Size
	GeneratedValue int64
	DeliveredValue int64
	EvictedValue   int64

	// Guarantee-protection accounting (internal/police): packets the
	// ingress policer demoted to best effort, and the subset caught by the
	// deadline-forgery test (the rest exceeded their sustained rate).
	PolicedPackets uint64
	PolicedForged  uint64

	PacketLatency TimeSeries // ns, creation to delivery
	NetLatency    TimeSeries // ns, injection to delivery (network-only share)
	LatencyHist   *Histogram // packet latency CDF

	// Deadline slack at delivery: deadline − delivery time, measured on
	// the destination's local clock via the TTD header (§3.4), so it is
	// correct even under clock skew. Negative slack is a missed deadline.
	Slack           TimeSeries
	SlackHist       *Histogram
	MissedDeadlines uint64 // delivered packets with negative slack

	FrameLatency TimeSeries // ns, frame creation to last-packet delivery
	FrameHist    *Histogram // frame latency CDF

	Jitter TimeSeries // ns, |latency_i - latency_{i-1}| per flow (RFC3550-style)
}

// merge folds other's accumulators into cs.
func (cs *ClassStats) merge(other *ClassStats) {
	cs.GeneratedPackets += other.GeneratedPackets
	cs.GeneratedBytes += other.GeneratedBytes
	cs.InjectedPackets += other.InjectedPackets
	cs.InjectedBytes += other.InjectedBytes
	cs.DeliveredPackets += other.DeliveredPackets
	cs.DeliveredBytes += other.DeliveredBytes
	cs.CorruptedPackets += other.CorruptedPackets
	cs.LostPackets += other.LostPackets
	cs.RetransmittedPackets += other.RetransmittedPackets
	cs.DemotedPackets += other.DemotedPackets
	cs.DuplicateDrops += other.DuplicateDrops
	cs.EvictedPackets += other.EvictedPackets
	cs.EvictedBytes += other.EvictedBytes
	cs.GeneratedValue += other.GeneratedValue
	cs.DeliveredValue += other.DeliveredValue
	cs.EvictedValue += other.EvictedValue
	cs.PolicedPackets += other.PolicedPackets
	cs.PolicedForged += other.PolicedForged
	cs.PacketLatency.Merge(&other.PacketLatency)
	cs.NetLatency.Merge(&other.NetLatency)
	cs.LatencyHist.Merge(other.LatencyHist)
	cs.Slack.Merge(&other.Slack)
	cs.SlackHist.Merge(other.SlackHist)
	cs.MissedDeadlines += other.MissedDeadlines
	cs.FrameLatency.Merge(&other.FrameLatency)
	cs.FrameHist.Merge(other.FrameHist)
	cs.Jitter.Merge(&other.Jitter)
}

// frameAcc assembles in-flight frames to measure frame-level latency.
// src and deadline feed the innocent/rogue isolation split: deadline is
// the latest stamped per-part deadline seen so far, rebased onto the
// destination's local clock (arrival + delivered slack), so the
// completion-vs-deadline comparison is exact under skew.
type frameAcc struct {
	created   units.Time
	remaining int
	class     packet.Class
	src       int
	deadline  units.Time
}

// Collector observes one simulation run.
type Collector struct {
	// WarmUp: packets created before this oracle time are ignored.
	WarmUp units.Time
	// Horizon: measurement window end; used for throughput normalisation.
	Horizon units.Time

	PerClass [packet.NumClasses]ClassStats

	// RogueSrcs marks hosts that misbehave (rogue/forge fault windows) at
	// any point of the run. Set by the network before traffic starts, on
	// every shard's collector; completed multi-part multimedia frames
	// then split into the innocent/rogue counters below by source host,
	// giving the
	// isolation metric of the guarantee-protection plane (the innocent
	// admitted-flow frame-miss rate). Nil when the plan has no
	// behavioural events.
	RogueSrcs map[int]bool
	// Innocent*/Rogue* split completed multi-part Multimedia frames by
	// source-host honesty (with no behavioural faults RogueSrcs is nil
	// and every frame counts as innocent). A frame is missed when
	// its last part arrives after the latest per-part deadline stamped
	// into it — the frame-level SLO the paper's Figure 3 targets, which
	// is robust where per-part slack is not (intermediate parts routinely
	// under-run their slice of the budget at full load).
	InnocentDelivered uint64
	InnocentMissed    uint64
	RogueDelivered    uint64
	RogueMissed       uint64

	frames  map[uint64]frameAcc // by value: no allocation per frame
	lastLat map[packet.FlowID]units.Time
	hosts   int
	linkBW  units.Bandwidth
}

// NewCollector returns a collector for a run over hosts endpoints with the
// given link bandwidth, measuring in the oracle window [warmUp, horizon].
func NewCollector(hosts int, linkBW units.Bandwidth, warmUp, horizon units.Time) *Collector {
	c := &Collector{
		WarmUp:  warmUp,
		Horizon: horizon,
		frames:  make(map[uint64]frameAcc),
		lastLat: make(map[packet.FlowID]units.Time),
		hosts:   hosts,
		linkBW:  linkBW,
	}
	for i := range c.PerClass {
		c.PerClass[i].LatencyHist = NewHistogram()
		c.PerClass[i].SlackHist = NewHistogram()
		c.PerClass[i].FrameHist = NewHistogram()
	}
	return c
}

// measured reports whether a packet belongs to the measurement window.
func (c *Collector) measured(p *packet.Packet) bool { return p.CreatedAt >= c.WarmUp }

// PacketGenerated records that the application produced p at its CreatedAt.
func (c *Collector) PacketGenerated(p *packet.Packet) {
	if !c.measured(p) {
		return
	}
	cs := &c.PerClass[p.Class]
	cs.GeneratedPackets++
	cs.GeneratedBytes += p.Size
	cs.GeneratedValue += p.Value
}

// PacketInjected records that p's first byte entered the network at now.
func (c *Collector) PacketInjected(p *packet.Packet, now units.Time) {
	if !c.measured(p) {
		return
	}
	cs := &c.PerClass[p.Class]
	cs.InjectedPackets++
	cs.InjectedBytes += p.Size
}

// PacketDelivered records p's arrival at its destination NIC at now.
func (c *Collector) PacketDelivered(p *packet.Packet, now units.Time) {
	if !c.measured(p) {
		return
	}
	cs := &c.PerClass[p.Class]
	cs.DeliveredPackets++
	cs.DeliveredBytes += p.Size
	cs.DeliveredValue += p.Value
	lat := now - p.CreatedAt
	cs.PacketLatency.Add(lat)
	cs.LatencyHist.Add(lat)
	// Delivery slack: at the destination the TTD header holds deadline −
	// arrival on the local clock (Receive unpacks it at this instant), so
	// p.TTD IS the slack — no oracle clock needed, skew cancels out.
	slack := p.TTD
	cs.Slack.Add(slack)
	cs.SlackHist.Add(slack)
	if slack < 0 {
		cs.MissedDeadlines++
	}
	if p.InjectedAt > 0 {
		cs.NetLatency.Add(now - p.InjectedAt)
	}
	if last, ok := c.lastLat[p.Flow]; ok {
		d := lat - last
		if d < 0 {
			d = -d
		}
		cs.Jitter.Add(d)
	}
	c.lastLat[p.Flow] = lat

	// Frame assembly is tracked purely on the delivery side: the record is
	// created lazily at the first delivered part (the header carries the
	// frame's creation time and part count). Frames are therefore local to
	// the destination host, which keeps per-shard collectors disjoint.
	if p.FrameID != 0 && p.FrameParts > 0 {
		f, ok := c.frames[p.FrameID]
		if !ok {
			f = frameAcc{created: p.CreatedAt, remaining: p.FrameParts, class: p.Class, src: p.Src}
		}
		// All parts arrive at one destination, so now+slack values share
		// one clock base and the max is the frame's final deadline there.
		if dl := now + slack; f.remaining == p.FrameParts || dl > f.deadline {
			f.deadline = dl
		}
		f.remaining--
		if f.remaining == 0 {
			flat := now - f.created
			fcs := &c.PerClass[f.class]
			fcs.FrameLatency.Add(flat)
			fcs.FrameHist.Add(flat)
			// The innocent/rogue split watches real (multi-part) video
			// frames only: single-packet multimedia messages — session
			// chatter with tens-of-µs ByBandwidth stamps — miss at a
			// structurally high rate in any mix and would drown the
			// isolation signal the split exists to measure.
			if f.class == packet.Multimedia && p.FrameParts > 1 {
				missed := now > f.deadline
				if c.RogueSrcs[f.src] {
					c.RogueDelivered++
					if missed {
						c.RogueMissed++
					}
				} else {
					c.InnocentDelivered++
					if missed {
						c.InnocentMissed++
					}
				}
			}
			if ok {
				delete(c.frames, p.FrameID)
			}
		} else {
			c.frames[p.FrameID] = f
		}
	}
}

// PacketCorrupted records that a copy of p was dropped by the destination
// NIC's CRC check.
func (c *Collector) PacketCorrupted(p *packet.Packet, now units.Time) {
	if c.measured(p) {
		c.PerClass[p.Class].CorruptedPackets++
	}
}

// PacketLost records that a copy of p was lost in flight to a link flap.
func (c *Collector) PacketLost(p *packet.Packet) {
	if c.measured(p) {
		c.PerClass[p.Class].LostPackets++
	}
}

// PacketRetransmitted records that a retransmit copy of p was queued.
func (c *Collector) PacketRetransmitted(p *packet.Packet, now units.Time) {
	if c.measured(p) {
		c.PerClass[p.Class].RetransmittedPackets++
	}
}

// PacketDemoted records that p was demoted to the best-effort VC.
func (c *Collector) PacketDemoted(p *packet.Packet, now units.Time) {
	if c.measured(p) {
		c.PerClass[p.Class].DemotedPackets++
	}
}

// PacketPoliced records that the ingress policer demoted p to the
// best-effort VC; forged marks deadline-forgery verdicts.
func (c *Collector) PacketPoliced(p *packet.Packet, now units.Time, forged bool) {
	if !c.measured(p) {
		return
	}
	cs := &c.PerClass[p.Class]
	cs.PolicedPackets++
	if forged {
		cs.PolicedForged++
	}
}

// PacketDupDropped records that a duplicate copy of p was dropped at the
// destination.
func (c *Collector) PacketDupDropped(p *packet.Packet, now units.Time) {
	if c.measured(p) {
		c.PerClass[p.Class].DuplicateDrops++
	}
}

// PacketEvicted records that a bounded NIC queue discarded p before
// injection (value-drop scheduling policies).
func (c *Collector) PacketEvicted(p *packet.Packet, now units.Time) {
	if !c.measured(p) {
		return
	}
	cs := &c.PerClass[p.Class]
	cs.EvictedPackets++
	cs.EvictedBytes += p.Size
	cs.EvictedValue += p.Value
}

// Window returns the measurement window length.
func (c *Collector) Window() units.Time { return c.Horizon - c.WarmUp }

// Throughput returns class cl's delivered bandwidth as a fraction of the
// aggregate host link capacity (the paper's normalised throughput axis).
func (c *Collector) Throughput(cl packet.Class) float64 {
	w := c.Window()
	if w <= 0 || c.hosts == 0 || c.linkBW <= 0 {
		return 0
	}
	bytes := float64(c.PerClass[cl].DeliveredBytes)
	capacity := float64(c.linkBW) * float64(w) * float64(c.hosts)
	return bytes / capacity
}

// OfferedLoad returns class cl's generated bandwidth as a fraction of the
// aggregate host link capacity.
func (c *Collector) OfferedLoad(cl packet.Class) float64 {
	w := c.Window()
	if w <= 0 || c.hosts == 0 || c.linkBW <= 0 {
		return 0
	}
	return float64(c.PerClass[cl].GeneratedBytes) / (float64(c.linkBW) * float64(w) * float64(c.hosts))
}

// IncompleteFrames returns frames with at least one part delivered that are
// still being assembled (diagnostics; a large number at teardown indicates
// saturation).
func (c *Collector) IncompleteFrames() int { return len(c.frames) }

// Merge folds other into c: the counters, series and histograms of every
// class plus the in-flight frame and per-flow jitter state. Both frame
// assembly and jitter are keyed by the destination host (a flow has one
// destination, a frame one flow), so collectors fed by a host-partitioned
// run hold disjoint maps and the union is exact. Used by internal/parsim
// runs to fold per-shard collectors into one; merging collectors that
// observed overlapping flows is a caller bug.
func (c *Collector) Merge(other *Collector) {
	for cl := range c.PerClass {
		c.PerClass[cl].merge(&other.PerClass[cl])
	}
	for id, f := range other.frames {
		c.frames[id] = f
	}
	for fl, lat := range other.lastLat {
		c.lastLat[fl] = lat
	}
	c.InnocentDelivered += other.InnocentDelivered
	c.InnocentMissed += other.InnocentMissed
	c.RogueDelivered += other.RogueDelivered
	c.RogueMissed += other.RogueMissed
	if c.RogueSrcs == nil {
		c.RogueSrcs = other.RogueSrcs
	}
}

// InnocentMissRate returns the frame-deadline miss rate of multimedia
// frames from well-behaved hosts — the isolation metric of the
// guarantee-protection plane. Runs without behavioural faults count
// every frame as innocent, so this doubles as the plain frame-level
// miss rate.
func (c *Collector) InnocentMissRate() float64 {
	if c.InnocentDelivered == 0 {
		return 0
	}
	return float64(c.InnocentMissed) / float64(c.InnocentDelivered)
}

// RogueMissRate returns the frame-deadline miss rate of multimedia frames
// from misbehaving hosts.
func (c *Collector) RogueMissRate() float64 {
	if c.RogueDelivered == 0 {
		return 0
	}
	return float64(c.RogueMissed) / float64(c.RogueDelivered)
}

// WeightedGoodput returns the delivered packet value as a fraction of the
// generated packet value across all classes — the weighted-throughput
// metric of the bounded-queue dropping literature (value earned / value
// offered). Classes whose flows carry no value density contribute to
// neither side; 0 when nothing valued was generated. Both accumulators are
// exact integers, so the ratio is shard-independent.
func (c *Collector) WeightedGoodput() float64 {
	var gen, del int64
	for cl := range c.PerClass {
		gen += c.PerClass[cl].GeneratedValue
		del += c.PerClass[cl].DeliveredValue
	}
	if gen == 0 {
		return 0
	}
	return float64(del) / float64(gen)
}

// MissRate returns the fraction of class cl's delivered packets that
// arrived past their deadline (negative slack).
func (c *Collector) MissRate(cl packet.Class) float64 {
	cs := &c.PerClass[cl]
	if cs.DeliveredPackets == 0 {
		return 0
	}
	return float64(cs.MissedDeadlines) / float64(cs.DeliveredPackets)
}

// Summary renders a one-line-per-class human-readable digest: delivery
// counts, normalised throughput, the latency quantile ladder, and the
// deadline-slack picture (mean slack and miss rate).
func (c *Collector) Summary() string {
	out := ""
	for cl := packet.Class(0); cl < packet.NumClasses; cl++ {
		cs := &c.PerClass[cl]
		out += fmt.Sprintf("%-12s gen=%-6d dlvr=%-6d thru=%5.1f%% lat(avg=%v p50=%v p95=%v p99=%v p99.9=%v max=%v) slack(avg=%v p50=%v miss=%.2f%%) jitter=%v\n",
			cl.String(), cs.GeneratedPackets, cs.DeliveredPackets, 100*c.Throughput(cl),
			units.Time(cs.PacketLatency.Mean()),
			cs.LatencyHist.Quantile(0.50), cs.LatencyHist.Quantile(0.95),
			cs.LatencyHist.Quantile(0.99), cs.LatencyHist.Quantile(0.999),
			units.Time(cs.PacketLatency.Max()),
			units.Time(cs.Slack.Mean()), cs.SlackHist.Quantile(0.50),
			100*c.MissRate(cl), units.Time(cs.Jitter.Mean()))
	}
	return out
}
