package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"deadlineqos/internal/packet"
	"deadlineqos/internal/units"
	"deadlineqos/internal/xrand"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	for _, v := range []float64{2, 4, 6, 8} {
		s.Add(v)
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 8 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	// Sample stddev of {2,4,6,8} = sqrt(20/3).
	want := math.Sqrt(20.0 / 3.0)
	if math.Abs(s.StdDev()-want) > 1e-9 {
		t.Fatalf("StdDev = %v, want %v", s.StdDev(), want)
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.StdDev() != 0 || s.Count() != 0 {
		t.Fatal("empty series must report zeros")
	}
}

func TestSeriesMergeMatchesSequential(t *testing.T) {
	// Clamp generated values into a latency-like range; unbounded float64
	// inputs overflow any sum-of-squares accumulator and test nothing real.
	clamp := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Remainder(v, 1e9)
	}
	prop := func(a, b []float64) bool {
		var all, left, right Series
		for _, v := range a {
			all.Add(clamp(v))
			left.Add(clamp(v))
		}
		for _, v := range b {
			all.Add(clamp(v))
			right.Add(clamp(v))
		}
		left.Merge(&right)
		if left.Count() != all.Count() {
			return false
		}
		if all.Count() == 0 {
			return true
		}
		return math.Abs(left.Mean()-all.Mean()) < 1e-6*(1+math.Abs(all.Mean())) &&
			math.Abs(left.StdDev()-all.StdDev()) < 1e-6*(1+all.StdDev())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Add(units.Time(i * 1000)) // 1us .. 1ms uniform
	}
	med := h.Quantile(0.5)
	// Bucketing is coarse (8 per octave => <=9% upper-bound error).
	if med < 450*units.Microsecond || med > 600*units.Microsecond {
		t.Fatalf("median = %v, want ~500us", med)
	}
	p100 := h.Quantile(1.0)
	if p100 < 1000*units.Microsecond || p100 > 1100*units.Microsecond {
		t.Fatalf("p100 = %v, want ~1ms", p100)
	}
	if h.Quantile(0.0) == 0 {
		t.Fatal("q=0 on non-empty histogram returned 0")
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	if q := NewHistogram().Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
}

func TestHistogramCDFMonotone(t *testing.T) {
	prop := func(raw []uint16) bool {
		h := NewHistogram()
		for _, v := range raw {
			h.Add(units.Time(v) + 1)
		}
		pts := h.CDF()
		prevLat, prevCum := units.Time(0), 0.0
		for _, p := range pts {
			if p.Latency <= prevLat && prevLat != 0 {
				return false
			}
			if p.Cum < prevCum {
				return false
			}
			prevLat, prevCum = p.Latency, p.Cum
		}
		if len(raw) > 0 {
			last := pts[len(pts)-1]
			if math.Abs(last.Cum-1.0) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramFractionBelow(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 90; i++ {
		h.Add(1 * units.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Add(100 * units.Millisecond)
	}
	if f := h.FractionBelow(1 * units.Millisecond); f != 0.9 {
		t.Fatalf("FractionBelow(1ms) = %v, want 0.9", f)
	}
	if f := h.FractionBelow(1 * units.Second); f != 1.0 {
		t.Fatalf("FractionBelow(1s) = %v, want 1", f)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 50; i++ {
		a.Add(units.Microsecond)
		b.Add(units.Millisecond)
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if f := a.FractionBelow(10 * units.Microsecond); f != 0.5 {
		t.Fatalf("merged FractionBelow = %v, want 0.5", f)
	}
}

func mkpkt(cl packet.Class, created units.Time, size units.Size) *packet.Packet {
	return &packet.Packet{Class: cl, CreatedAt: created, Size: size, Flow: 1}
}

func TestCollectorLatency(t *testing.T) {
	c := NewCollector(1, 1, 0, 1000)
	p := mkpkt(packet.Control, 100, 64)
	c.PacketGenerated(p)
	p.InjectedAt = 120
	c.PacketInjected(p, 120)
	c.PacketDelivered(p, 350)
	cs := &c.PerClass[packet.Control]
	if cs.PacketLatency.Mean() != 250 {
		t.Fatalf("packet latency = %v, want 250", cs.PacketLatency.Mean())
	}
	if cs.NetLatency.Mean() != 230 {
		t.Fatalf("network latency = %v, want 230", cs.NetLatency.Mean())
	}
	if cs.DeliveredPackets != 1 || cs.DeliveredBytes != 64 {
		t.Fatal("delivery counters wrong")
	}
}

func TestCollectorWarmUpExclusion(t *testing.T) {
	c := NewCollector(1, 1, 500, 1000)
	cold := mkpkt(packet.Control, 100, 64)
	c.PacketGenerated(cold)
	c.PacketDelivered(cold, 600)
	warm := mkpkt(packet.Control, 700, 64)
	c.PacketGenerated(warm)
	c.PacketDelivered(warm, 800)
	cs := &c.PerClass[packet.Control]
	if cs.DeliveredPackets != 1 {
		t.Fatalf("warm-up packet measured: delivered = %d, want 1", cs.DeliveredPackets)
	}
	if cs.PacketLatency.Mean() != 100 {
		t.Fatalf("latency = %v, want 100", cs.PacketLatency.Mean())
	}
}

func TestCollectorFrameAssembly(t *testing.T) {
	c := NewCollector(1, 1, 0, units.Second)
	// A 3-packet frame created at t=1000; last delivery at t=5000.
	for i := 0; i < 3; i++ {
		p := mkpkt(packet.Multimedia, 1000, 2048)
		p.FrameID = 77
		p.FrameParts = 3
		c.PacketGenerated(p)
		c.PacketDelivered(p, units.Time(2000+i*1500))
	}
	cs := &c.PerClass[packet.Multimedia]
	if cs.FrameLatency.Count() != 1 {
		t.Fatalf("frames measured = %d, want 1", cs.FrameLatency.Count())
	}
	if cs.FrameLatency.Mean() != 4000 {
		t.Fatalf("frame latency = %v, want 4000 (last part at 5000 - created 1000)", cs.FrameLatency.Mean())
	}
	if c.IncompleteFrames() != 0 {
		t.Fatal("frame not cleaned up after assembly")
	}
}

func TestCollectorIncompleteFrames(t *testing.T) {
	c := NewCollector(1, 1, 0, units.Second)
	p := mkpkt(packet.Multimedia, 0, 2048)
	p.FrameID = 5
	p.FrameParts = 2
	c.PacketGenerated(p)
	c.PacketDelivered(p, 100)
	if c.IncompleteFrames() != 1 {
		t.Fatalf("IncompleteFrames = %d, want 1", c.IncompleteFrames())
	}
}

func TestCollectorJitter(t *testing.T) {
	c := NewCollector(1, 1, 0, units.Second)
	// Same flow, latencies 100, 150, 120 -> jitter samples 50, 30.
	for i, d := range []units.Time{100, 150, 120} {
		p := mkpkt(packet.Control, units.Time(i*1000), 64)
		c.PacketGenerated(p)
		c.PacketDelivered(p, p.CreatedAt+d)
	}
	j := c.PerClass[packet.Control].Jitter
	if j.Count() != 2 {
		t.Fatalf("jitter samples = %d, want 2", j.Count())
	}
	if j.Mean() != 40 {
		t.Fatalf("jitter mean = %v, want 40", j.Mean())
	}
}

func TestCollectorThroughput(t *testing.T) {
	// 2 hosts at 1 byte/cycle over a 1000-cycle window = 2000 bytes
	// capacity. Delivering 500 bytes of Control = 25%.
	c := NewCollector(2, 1, 0, 1000)
	p := mkpkt(packet.Control, 10, 500)
	c.PacketGenerated(p)
	c.PacketDelivered(p, 900)
	if th := c.Throughput(packet.Control); th != 0.25 {
		t.Fatalf("Throughput = %v, want 0.25", th)
	}
	if ol := c.OfferedLoad(packet.Control); ol != 0.25 {
		t.Fatalf("OfferedLoad = %v, want 0.25", ol)
	}
	if th := c.Throughput(packet.Background); th != 0 {
		t.Fatalf("idle class throughput = %v, want 0", th)
	}
}

func TestCollectorSummaryNonEmpty(t *testing.T) {
	c := NewCollector(1, 1, 0, 1000)
	if c.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Add(5 * units.Microsecond)
	if q := h.Quantile(0.5); q < 5*units.Microsecond || q > 6*units.Microsecond {
		t.Fatalf("single-value quantile = %v", q)
	}
	pts := h.CDF()
	if len(pts) != 1 || pts[0].Cum != 1.0 {
		t.Fatalf("single-value CDF = %v", pts)
	}
}

func TestHistogramSubNanosecondClamp(t *testing.T) {
	h := NewHistogram()
	h.Add(0) // lands in the sub-cycle bucket
	if h.Count() != 1 {
		t.Fatal("zero-latency observation lost")
	}
	if f := h.FractionBelow(units.Microsecond); f != 1.0 {
		t.Fatalf("FractionBelow = %v", f)
	}
}

func TestHistogramSubCycleOnlyQuantile(t *testing.T) {
	// A histogram whose only observations are sub-cycle reports every
	// quantile as the sub-cycle bucket's upper bound, 0 — the documented
	// edge where Quantile alone cannot distinguish it from empty.
	h := NewHistogram()
	h.Add(0)
	h.Add(0)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("Quantile(%v) = %v, want 0", q, got)
		}
	}
	if h.Count() != 2 {
		t.Fatalf("Count = %d, want 2 (distinguishes sub-cycle from empty)", h.Count())
	}
	if f := h.FractionBelow(0); f != 1.0 {
		t.Fatalf("FractionBelow(0) = %v, want 1", f)
	}
}

func TestHistogramNegativeValues(t *testing.T) {
	// Deadline slack can be negative; bucket order must track value order
	// across the sign boundary.
	h := NewHistogram()
	late := []units.Time{-5 * units.Microsecond, -units.Microsecond, -1}
	early := []units.Time{0, 1, units.Microsecond}
	for _, v := range append(append([]units.Time{}, late...), early...) {
		h.Add(v)
	}
	// Half the observations are negative.
	if f := h.FractionBelow(-1); f != 0.5 {
		t.Fatalf("FractionBelow(-1) = %v, want 0.5", f)
	}
	if q := h.Quantile(0.5); q != -1 {
		t.Fatalf("median = %v, want -1 (upper bound of the -1 bucket)", q)
	}
	if q := h.Quantile(1.0); q < units.Microsecond {
		t.Fatalf("p100 = %v, want >= 1us", q)
	}
	// Quantile output is the -1us observation's bucket upper bound: at
	// least -1us, but still negative (within one bucket width, ~9%).
	q25 := h.Quantile(0.25)
	if q25 < -units.Microsecond || q25 > -900 {
		t.Fatalf("p25 = %v, want in [-1us, -900ns]", q25)
	}
	// CDF stays monotone across the signed range.
	pts := h.CDF()
	for i := 1; i < len(pts); i++ {
		if pts[i].Latency < pts[i-1].Latency || pts[i].Cum < pts[i-1].Cum {
			t.Fatalf("CDF not monotone at %d: %v", i, pts)
		}
	}
}

func TestHistogramQuantileIsUpperBound(t *testing.T) {
	// Property: Quantile(q) >= the true q-quantile for any signed data —
	// quantiles are bucket upper bounds, never underestimates.
	prop := func(raw []int16, qraw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		vals := make([]int64, len(raw))
		for i, v := range raw {
			h.Add(units.Time(v))
			vals[i] = int64(v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		q := float64(qraw%101) / 100
		target := int(math.Ceil(q * float64(len(vals))))
		if target < 1 {
			target = 1
		}
		exact := vals[target-1]
		return int64(h.Quantile(q)) >= exact
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramFractionBelowRoundTrip(t *testing.T) {
	// Property: FractionBelow(Quantile(q)) >= q — the quantile's bucket
	// accumulates at least the requested mass.
	prop := func(raw []int16, qraw uint8) bool {
		h := NewHistogram()
		for _, v := range raw {
			h.Add(units.Time(v))
		}
		if h.Count() == 0 {
			return true
		}
		q := float64(qraw%101) / 100
		return h.FractionBelow(h.Quantile(q)) >= q-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMergeRoundTrip(t *testing.T) {
	// Property: merging two histograms is equivalent to recording both
	// streams into one — identical counts, quantiles and CDF.
	prop := func(a, b []int16) bool {
		ha, hb, all := NewHistogram(), NewHistogram(), NewHistogram()
		for _, v := range a {
			ha.Add(units.Time(v))
			all.Add(units.Time(v))
		}
		for _, v := range b {
			hb.Add(units.Time(v))
			all.Add(units.Time(v))
		}
		ha.Merge(hb)
		if ha.Count() != all.Count() {
			return false
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if ha.Quantile(q) != all.Quantile(q) {
				return false
			}
		}
		pa, pall := ha.CDF(), all.CDF()
		if len(pa) != len(pall) {
			return false
		}
		for i := range pa {
			if pa[i] != pall[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// mapHistogram is the map-bucketed Histogram the dense bucket slice
// replaced, kept as the reference it must reproduce.
type mapHistogram struct {
	counts map[int]uint64
	total  uint64
}

func (h *mapHistogram) Add(v units.Time) {
	h.counts[bucketOf(v)]++
	h.total++
}

func (h *mapHistogram) Quantile(q float64) units.Time {
	if h.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	keys := h.sortedBuckets()
	var cum uint64
	for _, b := range keys {
		cum += h.counts[b]
		if cum >= target {
			return bucketUpper(b)
		}
	}
	return bucketUpper(keys[len(keys)-1])
}

func (h *mapHistogram) FractionBelow(v units.Time) float64 {
	if h.total == 0 {
		return 0
	}
	vb := bucketOf(v)
	var cum uint64
	for b, c := range h.counts {
		if b <= vb {
			cum += c
		}
	}
	return float64(cum) / float64(h.total)
}

func (h *mapHistogram) CDF() []CDFPoint {
	keys := h.sortedBuckets()
	pts := make([]CDFPoint, 0, len(keys))
	var cum uint64
	for _, b := range keys {
		cum += h.counts[b]
		pts = append(pts, CDFPoint{bucketUpper(b), float64(cum) / float64(h.total)})
	}
	return pts
}

func (h *mapHistogram) Merge(other *mapHistogram) {
	for b, c := range other.counts {
		h.counts[b] += c
	}
	h.total += other.total
}

func (h *mapHistogram) sortedBuckets() []int {
	keys := make([]int, 0, len(h.counts))
	for b := range h.counts {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	return keys
}

// randomTimes draws n values from one random decade of magnitudes up to
// 1e13, all negative, all positive or of both signs, with one in ten
// exactly 0. Two draws usually cover disjoint bucket ranges.
func randomTimes(r *xrand.Rand, n int) []units.Time {
	decade, sign := r.Uniform(0, 12), r.Intn(3)-1
	out := make([]units.Time, n)
	for i := range out {
		if r.Intn(10) == 0 {
			continue
		}
		v := units.Time(math.Pow(10, decade+r.Float64()))
		if sign < 0 || sign == 0 && r.Intn(2) == 0 {
			v = -v
		}
		out[i] = v
	}
	return out
}

// TestHistogramMatchesMapReference drives the dense histogram and the
// map reference with the same random signed values, then merges
// histograms of (usually) disjoint ranges, including into and from an
// empty one. Count, CDF, Quantile and FractionBelow must agree exactly.
func TestHistogramMatchesMapReference(t *testing.T) {
	same := func(trial int, what string, h *Histogram, ref *mapHistogram, probes []units.Time) {
		t.Helper()
		if h.Count() != ref.total {
			t.Fatalf("trial %d %s: Count %d, reference %d", trial, what, h.Count(), ref.total)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			if got, want := h.Quantile(q), ref.Quantile(q); got != want {
				t.Fatalf("trial %d %s: Quantile(%v) %v, reference %v", trial, what, q, got, want)
			}
		}
		got, want := h.CDF(), ref.CDF()
		if len(got) != len(want) {
			t.Fatalf("trial %d %s: %d CDF points, reference %d", trial, what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d %s: CDF point %d %+v, reference %+v", trial, what, i, got[i], want[i])
			}
			probes = append(probes, got[i].Latency, got[i].Latency+1)
		}
		for _, v := range append(probes, 0, -1, 1, -1e15, 1e15) {
			if got, want := h.FractionBelow(v), ref.FractionBelow(v); got != want {
				t.Fatalf("trial %d %s: FractionBelow(%v) %v, reference %v", trial, what, v, got, want)
			}
		}
	}
	r := xrand.New(1)
	for trial := 0; trial < 300; trial++ {
		var hs [2]*Histogram
		var refs [2]*mapHistogram
		var all []units.Time
		for k := range hs {
			hs[k], refs[k] = NewHistogram(), &mapHistogram{counts: map[int]uint64{}}
			vals := randomTimes(r, r.Intn(40))
			for _, v := range vals {
				hs[k].Add(v)
				refs[k].Add(v)
			}
			same(trial, "single", hs[k], refs[k], vals)
			all = append(all, vals...)
		}
		empty, emptyRef := NewHistogram(), &mapHistogram{counts: map[int]uint64{}}
		empty.Merge(hs[1])
		emptyRef.Merge(refs[1])
		same(trial, "merged into empty", empty, emptyRef, all)
		hs[0].Merge(hs[1])
		refs[0].Merge(refs[1])
		same(trial, "merged", hs[0], refs[0], all)
	}
}

func TestCollectorSlackAndMissRate(t *testing.T) {
	c := NewCollector(1, 1, 0, units.Second)
	// Three deliveries: slacks +500, +100, -200 (one missed deadline).
	for _, s := range []units.Time{500, 100, -200} {
		p := mkpkt(packet.Control, 10, 64)
		p.TTD = s // Receive leaves slack in the TTD header at delivery
		c.PacketGenerated(p)
		c.PacketDelivered(p, 100)
	}
	cs := &c.PerClass[packet.Control]
	if cs.Slack.Count() != 3 {
		t.Fatalf("slack samples = %d, want 3", cs.Slack.Count())
	}
	if cs.Slack.Mean() != 400.0/3 {
		t.Fatalf("slack mean = %v, want 133.3", cs.Slack.Mean())
	}
	if cs.MissedDeadlines != 1 {
		t.Fatalf("missed = %d, want 1", cs.MissedDeadlines)
	}
	if mr := c.MissRate(packet.Control); math.Abs(mr-1.0/3) > 1e-12 {
		t.Fatalf("miss rate = %v, want 1/3", mr)
	}
	if c.MissRate(packet.Background) != 0 {
		t.Fatal("idle class reported a miss rate")
	}
	snap := c.Snapshot("test")
	ctl := snap.Classes[packet.Control.String()]
	if ctl.MissedDeadlines != 1 || ctl.SlackMeanNs != 400.0/3 {
		t.Fatalf("snapshot slack fields wrong: %+v", ctl)
	}
}

func TestCollectorUntrackedFrames(t *testing.T) {
	// Packets without frame ids must not create frame records.
	c := NewCollector(1, 1, 0, units.Second)
	p := mkpkt(packet.Control, 0, 64)
	c.PacketGenerated(p)
	c.PacketDelivered(p, 100)
	if c.IncompleteFrames() != 0 {
		t.Fatal("frameless packet created a frame record")
	}
	if c.PerClass[packet.Control].FrameLatency.Count() != 0 {
		t.Fatal("frameless packet recorded a frame latency")
	}
}

func TestCollectorNetLatencyRequiresInjection(t *testing.T) {
	c := NewCollector(1, 1, 0, units.Second)
	p := mkpkt(packet.Control, 10, 64)
	c.PacketGenerated(p)
	c.PacketDelivered(p, 100) // InjectedAt left zero
	if c.PerClass[packet.Control].NetLatency.Count() != 0 {
		t.Fatal("network latency recorded without injection timestamp")
	}
}
