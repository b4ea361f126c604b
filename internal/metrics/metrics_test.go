package metrics

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestBucketBounds checks the log-linear bucket math: every magnitude
// lands in a bucket whose bounds contain it, and bounds are monotone.
func TestBucketBounds(t *testing.T) {
	for idx := 1; idx < histBuckets; idx++ {
		lo := int64(1)
		if idx > 1 {
			lo = bucketUpper(idx-1) + 1
		}
		hi := bucketUpper(idx)
		if hi < lo {
			t.Fatalf("bucket %d: upper %d < lower %d", idx, hi, lo)
		}
	}
	for _, m := range []uint64{1, 2, 7, 8, 9, 15, 16, 100, 1 << 20, 1<<20 + 3, 1<<63 - 1, 1 << 63, math.MaxUint64 >> 1, math.MaxUint64} {
		idx := bucketOf(m)
		if idx < 1 || idx >= histBuckets {
			t.Fatalf("magnitude %d: bucket %d out of range", m, idx)
		}
		hi := uint64(bucketUpper(idx))
		var lo uint64 = 1
		if idx > 1 {
			lo = uint64(bucketUpper(idx-1)) + 1
		}
		if bucketUpper(idx) == math.MaxInt64 {
			hi = math.MaxUint64 // saturated top bucket
		}
		if m < lo || m > hi {
			t.Fatalf("magnitude %d: bucket %d bounds [%d,%d] miss it", m, idx, lo, hi)
		}
	}
	// Relative bucket width is bounded by 1/8 above the linear range.
	for idx := 9; idx < histBuckets; idx++ {
		lo, hi := float64(bucketUpper(idx-1)+1), float64(bucketUpper(idx))
		if hi == math.MaxInt64 {
			continue
		}
		if (hi-lo)/lo > 0.25 {
			t.Fatalf("bucket %d: relative width %.3f too coarse", idx, (hi-lo)/lo)
		}
	}
}

// TestNilSafety: every instrument method on a nil receiver (and handle
// resolution on a nil Set) must be a no-op — the disabled path.
func TestNilSafety(t *testing.T) {
	var s *Set
	c, g, h := s.Counter(0), s.Gauge(0), s.Histogram(0)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil Set must resolve nil handles")
	}
	c.Inc()
	c.Add(5)
	c.Store(9)
	g.Set(3)
	g.Add(1)
	h.Observe(-42)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	s.Publish() // must not panic
}

func TestGatherMergesSets(t *testing.T) {
	r := NewRegistry()
	cid := r.Counter("test_ops_total", "ops")
	gsum := r.Gauge("test_depth", "depth")
	gmax := r.Gauge("test_clock", "clock", WithMax())
	hid := r.Histogram("test_lat_ns", "latency")

	a, b := r.NewSet(), r.NewSet()
	a.Counter(cid).Add(3)
	b.Counter(cid).Add(1)
	b.Counter(cid).Store(4) // a published running total replaces the value
	a.Gauge(gsum).Set(10)
	b.Gauge(gsum).Set(5)
	a.Gauge(gmax).Set(100)
	b.Gauge(gmax).Set(70)
	a.Histogram(hid).Observe(-9)
	a.Histogram(hid).Observe(0)
	b.Histogram(hid).Observe(1000)
	a.Publish()
	b.Publish()

	snap := r.Gather()
	if got := snap.Counters[0]; got != 7 {
		t.Fatalf("counter merge: got %d want 7", got)
	}
	if got := snap.Gauges[0]; got != 15 {
		t.Fatalf("sum gauge merge: got %d want 15", got)
	}
	if got := snap.Gauges[1]; got != 100 {
		t.Fatalf("max gauge merge: got %d want 100", got)
	}
	h := snap.Hists[0]
	if h.Count != 3 || h.Sum != 991 {
		t.Fatalf("hist merge: count=%d sum=%d", h.Count, h.Sum)
	}

	// Rotate folds into base; new sets start clean but Gather keeps the
	// history (counters/hists accumulate across epochs).
	r.Rotate()
	c2 := r.NewSet()
	c2.Counter(cid).Add(10)
	c2.Publish()
	snap = r.Gather()
	if got := snap.Counters[0]; got != 17 {
		t.Fatalf("post-rotate counter: got %d want 17", got)
	}
	if got := snap.Hists[0].Count; got != 3 {
		t.Fatalf("post-rotate hist count: got %d want 3", got)
	}
}

// TestDeterministicRender: WriteDeterministic must be byte-identical
// whether the same observations land in one set or are split across
// three, and must exclude PerEngine instruments.
func TestDeterministicRender(t *testing.T) {
	build := func(split int) string {
		r := NewRegistry()
		cid := r.Counter("d_ops_total", "ops")
		eid := r.Counter("d_engine_events_total", "per-engine", PerEngine())
		hid := r.Histogram("d_slack_ns", "slack", WithLabel(`class="control"`))
		sets := make([]*Set, split)
		for i := range sets {
			sets[i] = r.NewSet()
		}
		for i := 0; i < 99; i++ {
			s := sets[i%split]
			s.Counter(cid).Inc()
			s.Counter(eid).Add(uint64(i)) // shard-dependent noise
			s.Histogram(hid).Observe(int64(i*37 - 500))
		}
		for _, s := range sets {
			s.Publish()
		}
		var buf bytes.Buffer
		if err := r.WriteDeterministic(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one, three := build(1), build(3)
	if one != three {
		t.Fatalf("deterministic render differs across set splits:\n--- 1 set\n%s\n--- 3 sets\n%s", one, three)
	}
	if strings.Contains(one, "d_engine_events_total") {
		t.Fatal("WriteDeterministic must exclude PerEngine instruments")
	}
	var full bytes.Buffer
	r := NewRegistry()
	r.Counter("d_engine_events_total", "per-engine", PerEngine())
	s := r.NewSet()
	s.Counter(0).Inc()
	s.Publish()
	if err := r.WriteProm(&full); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(full.String(), "d_engine_events_total 1") {
		t.Fatalf("WriteProm must include PerEngine instruments:\n%s", full.String())
	}
}

func TestPromHistogramRendering(t *testing.T) {
	r := NewRegistry()
	hid := r.Histogram("p_v", "values")
	s := r.NewSet()
	h := s.Histogram(hid)
	h.Observe(-3)
	h.Observe(0)
	h.Observe(5)
	h.Observe(5)
	s.Publish()
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE p_v histogram",
		`p_v_bucket{le="-3"} 1`,
		`p_v_bucket{le="0"} 2`,
		`p_v_bucket{le="5"} 4`,
		`p_v_bucket{le="+Inf"} 4`,
		"p_v_sum 7",
		"p_v_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Fatalf("re-registration returned a new id: %d vs %d", a, b)
	}
	c := r.Counter("x_total", "x", WithLabel(`k="v"`))
	if c == a {
		t.Fatal("distinct label must get its own slot")
	}
}

func TestServerScrape(t *testing.T) {
	r := NewRegistry()
	cid := r.Counter("s_ops_total", "ops")
	s := r.NewSet()
	s.Counter(cid).Add(42)
	s.Publish()
	srv, err := StartServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "s_ops_total 42") {
		t.Fatalf("scrape missing counter:\n%s", out)
	}
	if out := get("/metrics.json"); !strings.Contains(out, `"s_ops_total":42`) {
		t.Fatalf("json missing counter:\n%s", out)
	}
	if out := get("/debug/vars"); !strings.Contains(out, "cmdline") {
		t.Fatalf("expvar page missing:\n%s", out)
	}
	if out := get("/debug/pprof/"); !strings.Contains(out, "profile") {
		t.Fatalf("pprof index missing:\n%s", out)
	}
}

func TestQuantile(t *testing.T) {
	r := NewRegistry()
	hid := r.Histogram("q_v", "values")
	s := r.NewSet()
	h := s.Histogram(hid)
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s.Publish()
	snap := r.Gather()
	p50 := snap.Hists[hid].Quantile(0.50)
	if p50 < 450 || p50 > 600 {
		t.Fatalf("p50 of 1..1000 = %d, outside log-bucket tolerance", p50)
	}
	p99 := snap.Hists[hid].Quantile(0.99)
	if p99 < 950 || p99 > 1100 {
		t.Fatalf("p99 of 1..1000 = %d", p99)
	}
}

// TestHistogramSnapshot: a snapshot lists the non-empty buckets in the
// order a sort by Upper gives, across negative, zero and positive
// values, and allocates its bucket list once.
func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	for i := int64(-40); i <= 40; i++ {
		h.Observe(i * i * i * 997)
	}
	h.Observe(math.MaxInt64 / 3)
	h.Observe(math.MinInt64 / 3)
	var want []HistBucket
	for i, c := range h.pos {
		if c != 0 {
			want = append(want, HistBucket{Upper: bucketUpper(i), Count: c})
		}
	}
	for i, c := range h.neg {
		if c != 0 {
			want = append(want, HistBucket{Upper: -bucketUpper(i-1) - 1, Count: c})
		}
	}
	sort.Slice(want, func(a, b int) bool { return want[a].Upper < want[b].Upper })
	if got := h.snapshot().Buckets; !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets %v, want %v", got, want)
	}
	if n := testing.AllocsPerRun(10, func() { h.snapshot() }); n != 1 {
		t.Errorf("snapshot allocates %v times, want 1", n)
	}
}
