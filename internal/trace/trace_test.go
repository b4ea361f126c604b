package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"deadlineqos/internal/packet"
	"deadlineqos/internal/paged"
	"deadlineqos/internal/units"
)

func TestSampleIDDeterministic(t *testing.T) {
	a, err := New(Config{SampleRate: 0.3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(Config{SampleRate: 0.3, Seed: 42})
	for id := uint64(0); id < 10000; id++ {
		if a.SampleID(id) != b.SampleID(id) {
			t.Fatalf("sampling decision for id %d differs between identical tracers", id)
		}
	}
	c, _ := New(Config{SampleRate: 0.3, Seed: 43})
	diff := 0
	for id := uint64(0); id < 10000; id++ {
		if a.SampleID(id) != c.SampleID(id) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds selected identical sample sets")
	}
}

func TestSampleIDRate(t *testing.T) {
	cases := []struct {
		rate   float64
		lo, hi int
	}{
		{0, 0, 0},
		{1, 10000, 10000},
		{0.25, 2000, 3000}, // generous bounds around 2500
	}
	for _, c := range cases {
		tr, err := New(Config{SampleRate: c.rate, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for id := uint64(0); id < 10000; id++ {
			if tr.SampleID(id) {
				n++
			}
		}
		if n < c.lo || n > c.hi {
			t.Errorf("rate %v: sampled %d of 10000, want [%d, %d]", c.rate, n, c.lo, c.hi)
		}
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.SampleID(5) {
		t.Error("nil tracer sampled a packet")
	}
	tr.Record(Event{Kind: KindDelivered}) // must not panic
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.SampledPackets() != 0 || tr.HopSlack() != nil {
		t.Error("nil tracer reported non-empty state")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Errorf("nil tracer WriteJSONL: %v", err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{SampleRate: -0.1}); err == nil {
		t.Error("negative sample rate accepted")
	}
	if _, err := New(Config{SampleRate: 1.5}); err == nil {
		t.Error("sample rate > 1 accepted")
	}
	if _, err := New(Config{MaxEvents: -1}); err == nil {
		t.Error("negative event cap accepted")
	}
}

func TestMaxEventsCap(t *testing.T) {
	tr, err := New(Config{SampleRate: 1, MaxEvents: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tr.Record(Event{T: 1, Kind: KindGenerated, Pkt: uint64(i)})
	}
	if got := tr.Len(); got != 3 {
		t.Errorf("stored %d events, want 3", got)
	}
	// Each walks the events the cut kept, in recording order.
	var pkts []uint64
	tr.Each(func(ev Event) { pkts = append(pkts, ev.Pkt) })
	if !slices.Equal(pkts, []uint64{0, 1, 2}) {
		t.Errorf("Each visited packets %v, want [0 1 2]", pkts)
	}
	if tr.Dropped() != 2 {
		t.Errorf("dropped %d events, want 2", tr.Dropped())
	}
}

func sampleEvents() []Event {
	return []Event{
		{T: 100, Kind: KindGenerated, Pkt: 9, Flow: 2, Class: packet.Control, VC: 0, Src: 1, Dst: 5, Node: 1, Port: -1, Out: -1, Hop: 0, Slack: 5000, Size: 64},
		{T: 160, Kind: KindInjected, Pkt: 9, Flow: 2, Class: packet.Control, VC: 0, Src: 1, Dst: 5, Node: 1, Port: -1, Out: -1, Hop: 0, Slack: 4940, Size: 64},
		{T: 400, Kind: KindVOQEnqueue, Pkt: 9, Flow: 2, Class: packet.Control, VC: 0, Src: 1, Dst: 5, Node: 0, Port: 1, Out: 5, Hop: 0, Slack: 4700, Size: 64},
		{T: 500, Kind: KindVOQDequeue, Pkt: 9, Flow: 2, Class: packet.Control, VC: 0, Src: 1, Dst: 5, Node: 0, Port: 1, Out: 5, Hop: 0, Slack: 4600, Size: 64},
		{T: 520, Kind: KindTakeOver, Pkt: 9, Flow: 2, Class: packet.Control, VC: 0, Src: 1, Dst: 5, Node: 0, Port: 5, Out: -1, Hop: 0, Slack: 4580, Size: 64},
		{T: 560, Kind: KindOutputEnqueue, Pkt: 9, Flow: 2, Class: packet.Control, VC: 0, Src: 1, Dst: 5, Node: 0, Port: 5, Out: -1, Hop: 0, Slack: 4540, Size: 64},
		{T: 600, Kind: KindLinkTx, Pkt: 9, Flow: 2, Class: packet.Control, VC: 0, Src: 1, Dst: 5, Node: 0, Port: 5, Out: -1, Hop: 0, Slack: 4500, Size: 64},
		{T: 900, Kind: KindDelivered, Pkt: 9, Flow: 2, Class: packet.Control, VC: 0, Src: 1, Dst: 5, Node: 5, Port: -1, Out: -1, Hop: 1, Slack: 4200, Size: 64},
	}
}

func TestWriteJSONLStableAndValid(t *testing.T) {
	render := func() string {
		tr, _ := New(Config{SampleRate: 1})
		for _, ev := range sampleEvents() {
			tr.Record(ev)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("identical event streams rendered different JSONL")
	}
	lines := strings.Split(strings.TrimSuffix(a, "\n"), "\n")
	if len(lines) != len(sampleEvents()) {
		t.Fatalf("got %d JSONL lines, want %d", len(lines), len(sampleEvents()))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v", err)
	}
	if first["k"] != "gen" || first["pkt"] != float64(9) || first["slack"] != float64(5000) {
		t.Errorf("unexpected first line fields: %v", first)
	}
}

func TestHopSlackAggregation(t *testing.T) {
	tr, _ := New(Config{SampleRate: 1})
	for _, s := range []struct {
		hop   int
		slack int64
	}{{0, 100}, {0, 300}, {1, -50}} {
		tr.Record(Event{Kind: KindVOQDequeue, Hop: s.hop, Slack: units.Time(s.slack)})
	}
	hs := tr.HopSlack()
	if len(hs) != 2 {
		t.Fatalf("got %d hop entries, want 2", len(hs))
	}
	h0 := hs[0]
	if h0.Hop != 0 || h0.Count != 2 || h0.MeanNs != 200 || h0.MinNs != 100 || h0.MaxNs != 300 {
		t.Errorf("hop 0 aggregate wrong: %+v", h0)
	}
	h1 := hs[1]
	if h1.Hop != 1 || h1.Count != 1 || h1.MinNs != -50 {
		t.Errorf("hop 1 aggregate wrong: %+v", h1)
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	tr, _ := New(Config{SampleRate: 1})
	for _, ev := range sampleEvents() {
		tr.Record(ev)
	}
	// A second packet that dies to a CRC drop mid-flight, then a
	// retransmit instant, exercising the terminal/instant paths.
	tr.Record(Event{T: 1000, Kind: KindGenerated, Pkt: 11, Class: packet.BestEffort, Node: 2, Port: -1, Out: -1})
	tr.Record(Event{T: 1100, Kind: KindCRCDrop, Pkt: 11, Class: packet.BestEffort, Node: 6, Port: -1, Out: -1})
	tr.Record(Event{T: 1200, Kind: KindRetransmit, Pkt: 11, Class: packet.BestEffort, Node: 2, Port: -1, Out: -1})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var slices, instants, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			slices++
			if _, ok := ev["dur"]; !ok {
				t.Errorf("complete slice without dur: %v", ev)
			}
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	// Packet 9: spans gen→inject→voq-enq→voq-deq→out-enq→link-tx closed
	// by deliver (6 slices) + takeover & deliver instants. Packet 11:
	// gen span closed by crc-drop (1 slice) + crc-drop & retx instants.
	if slices != 7 {
		t.Errorf("got %d complete slices, want 7", slices)
	}
	if instants != 4 {
		t.Errorf("got %d instants, want 4", instants)
	}
	if meta != 3 { // process_name + 2 thread_names
		t.Errorf("got %d metadata events, want 3", meta)
	}
}

func TestTelemetryWriters(t *testing.T) {
	tel := &Telemetry{
		Interval: 1000,
		Ports: []PortSample{
			{T: 1000, Switch: 0, Port: 2, InPackets: 3, InBytes: 384, OutPackets: 1, OutBytes: 128,
				CreditBytes: 2048, TakeOvers: 4, OrderErrors: 1, TakeOverRate: 4e6, OrderErrRate: 1e6, LinkUtilization: 0.75},
		},
		Engine: []EngineSample{{T: 1000, Events: 500, Pending: 12, EventRate: 5e8}},
	}
	var csv bytes.Buffer
	if err := tel.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 row", len(lines))
	}
	if !strings.HasPrefix(lines[1], "1000,0,2,3,384,1,128,2048,4,1,") {
		t.Errorf("unexpected CSV row: %q", lines[1])
	}
	var js bytes.Buffer
	if err := tel.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Telemetry
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("telemetry JSON round-trip: %v", err)
	}
	if len(back.Ports) != 1 || back.Ports[0].CreditBytes != 2048 {
		t.Errorf("telemetry JSON round-trip lost data: %+v", back)
	}
}

func TestProfileFinalize(t *testing.T) {
	p := &Profile{Events: 2_000_000, SimulatedNs: 10_000_000, WallNs: 500_000_000}
	p.Finalize()
	if p.EventsPerSec != 4e6 {
		t.Errorf("EventsPerSec = %v, want 4e6", p.EventsPerSec)
	}
	if p.WallPerSimSec != 50 {
		t.Errorf("WallPerSimSec = %v, want 50", p.WallPerSimSec)
	}
	if s := p.String(); !strings.Contains(s, "rate=4.00M ev/s") {
		t.Errorf("profile string missing rate: %q", s)
	}
}

// TestAbsorbPagedShardLogs: three clones record interleaved shares of
// one time-ordered stream, each more than two pages long, and the root
// absorbs their logs. Absorb moves the pages (an event keeps its
// address), and the root's exports and counters equal those of one
// tracer that recorded the whole stream, with the default cap and with
// caps that cut inside a page and at an instant shared by the shards.
func TestAbsorbPagedShardLogs(t *testing.T) {
	const perShard = 2*paged.PageLen + 100
	record := func(single *Tracer, clones []*Tracer) {
		for i := 0; i < perShard; i++ {
			for k, c := range clones {
				ev := Event{T: units.Time(i / 3), Kind: Kind(i % 3), Pkt: uint64(k<<20 + i/3), Node: k}
				single.Record(ev)
				c.Record(ev)
			}
		}
	}
	exports := func(tr *Tracer) string {
		var b bytes.Buffer
		fmt.Fprintf(&b, "len=%d dropped=%d sampled=%d\n", tr.Len(), tr.Dropped(), tr.SampledPackets())
		if err := tr.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, max := range []int{0, 1000, 1001, 2*paged.PageLen + 1} {
		single, _ := New(Config{SampleRate: 1, MaxEvents: max})
		root, _ := New(Config{SampleRate: 1, MaxEvents: max})
		clones := []*Tracer{root.Clone(), root.Clone(), root.Clone()}
		record(single, clones)
		if max == 0 {
			addr := clones[1].log.At(paged.PageLen + 1)
			for _, c := range clones {
				root.Absorb(c)
			}
			if root.absorbed[1].At(paged.PageLen+1) != addr {
				t.Fatal("Absorb copied a shard's events instead of moving its pages")
			}
		} else {
			for _, c := range clones {
				root.Absorb(c)
			}
		}
		want, got := exports(single), exports(root)
		if want != got {
			wh, _, _ := strings.Cut(want, "\n")
			gh, _, _ := strings.Cut(got, "\n")
			t.Errorf("cap %d: absorbed shard logs export %q, one tracer %q", max, gh, wh)
		}
		if wantLen := min(3*perShard, max); max > 0 && single.Len() != wantLen {
			t.Errorf("cap %d: %d events kept, want %d", max, single.Len(), wantLen)
		}
	}
}

// TestWriteJSONLAllocatesPerWriteNotPerEvent: writing the merged logs of
// two shard clones, 40,000 events with four to an instant on each shard,
// allocates a small constant number of times, not once per line.
func TestWriteJSONLAllocatesPerWriteNotPerEvent(t *testing.T) {
	root, _ := New(Config{SampleRate: 1})
	clones := []*Tracer{root.Clone(), root.Clone()}
	for i := 0; i < 20000; i++ {
		for k, c := range clones {
			c.Record(Event{T: units.Time(i / 4), Kind: Kind(i % 3), Pkt: uint64(k<<20 + i), Node: k})
		}
	}
	for _, c := range clones {
		root.Absorb(c)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := root.WriteJSONL(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("WriteJSONL of %d events allocates %v times, want at most 10", root.Len(), allocs)
	}
}

// TestWriteChromeTraceAllocatesPerWriteNotPerEvent: exporting the merged
// logs of two shard clones, 10,000 packets of seven lifecycle events
// each, allocates a small constant number of times, not once per packet,
// span or event.
func TestWriteChromeTraceAllocatesPerWriteNotPerEvent(t *testing.T) {
	root, _ := New(Config{SampleRate: 1})
	clones := []*Tracer{root.Clone(), root.Clone()}
	life := []Kind{KindGenerated, KindInjected, KindVOQEnqueue, KindVOQDequeue,
		KindOutputEnqueue, KindTakeOver, KindDelivered}
	for i := 0; i < 5000; i++ {
		for k, c := range clones {
			for j, kind := range life {
				c.Record(Event{T: units.Time(10*i + j), Kind: kind, Pkt: uint64(k<<20 + i), Node: k, Port: j, Out: -1})
			}
		}
	}
	for _, c := range clones {
		root.Absorb(c)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := root.WriteChromeTrace(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("WriteChromeTrace of %d events allocates %v times, want at most 10", root.Len(), allocs)
	}
}
