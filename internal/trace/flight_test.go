package trace

import (
	"bytes"
	"strings"
	"testing"

	"deadlineqos/internal/units"
)

func flightEvent(i int) Event {
	return Event{T: units.Time(i * 10), Kind: KindInjected, Pkt: uint64(i), Node: i % 4, Port: -1, Out: -1}
}

// TestFlightRingWindow: the ring keeps exactly the last cap events
// before a trip plus cap/4 of aftermath, then freezes.
func TestFlightRingWindow(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 100; i++ {
		f.record(flightEvent(i))
	}
	evs := f.Events()
	if len(evs) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(evs))
	}
	if evs[0].Pkt != 92 || evs[7].Pkt != 99 {
		t.Fatalf("ring window [%d..%d], want [92..99]", evs[0].Pkt, evs[7].Pkt)
	}

	f.Trip("test", 123)
	for i := 100; i < 200; i++ {
		f.record(flightEvent(i))
	}
	evs = f.Events()
	// Grace is cap/4 = 2: events 100 and 101 recorded, then frozen.
	if last := evs[len(evs)-1].Pkt; last != 101 {
		t.Fatalf("last event after freeze is %d, want 101", last)
	}
	if tripped, reason, at := f.Tripped(); !tripped || reason != "test" || at != 123 {
		t.Fatalf("trip state = (%v, %q, %v)", tripped, reason, at)
	}
	// Second trip must not win.
	f.Trip("later", 999)
	if _, reason, _ := f.Tripped(); reason != "test" {
		t.Fatalf("later trip overwrote the first: %q", reason)
	}
}

// TestFlightAbsorb: shard rings fold into the root; the earliest trip
// wins regardless of absorb order.
func TestFlightAbsorb(t *testing.T) {
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		root := NewFlightRecorder(16)
		shards := []*FlightRecorder{root.Clone(), root.Clone()}
		shards[0].record(flightEvent(1))
		shards[0].Trip("late", 500)
		shards[1].record(flightEvent(2))
		shards[1].Trip("early", 100)
		root.Absorb(shards[order[0]])
		root.Absorb(shards[order[1]])
		if _, reason, at := root.Tripped(); reason != "early" || at != 100 {
			t.Fatalf("absorb order %v: trip (%q, %v), want (early, 100)", order, reason, at)
		}
		if len(root.Events()) != 2 {
			t.Fatalf("absorb order %v: %d events, want 2", order, len(root.Events()))
		}
	}
}

// TestFlightViaTracer: a full-sampling discard tracer feeds the ring
// without storing events, and Clone/Absorb carry the ring along.
func TestFlightViaTracer(t *testing.T) {
	f := NewFlightRecorder(32)
	tr, err := New(Config{SampleRate: 1, Seed: 7, Flight: f, DiscardEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := tr.Clone(), tr.Clone()
	for i := 0; i < 10; i++ {
		c1.Record(flightEvent(i))
		c2.Record(flightEvent(100 + i))
	}
	if tr.Len() != 0 {
		t.Fatal("DiscardEvents tracer stored events")
	}
	c2.Flight().Trip("slo", 42)
	tr.Absorb(c1)
	tr.Absorb(c2)
	if tripped, reason, _ := tr.Flight().Tripped(); !tripped || reason != "slo" {
		t.Fatalf("trip did not propagate: (%v, %q)", tripped, reason)
	}
	var buf bytes.Buffer
	if err := tr.Flight().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, `{"flightrec":1,"tripped":true,"reason":"slo","tripped_at":42,"events":20}`) {
		t.Fatalf("meta line wrong:\n%s", out[:min(len(out), 200)])
	}
	if got := strings.Count(out, "\n"); got != 21 {
		t.Fatalf("%d lines, want 21 (meta + 20 events)", got)
	}
	// Event lines are in canonical (time, bytes) order.
	lines := strings.Split(strings.TrimSpace(out), "\n")[1:]
	var prev string
	for _, l := range lines {
		if !strings.HasPrefix(l, `{"t":`) {
			t.Fatalf("bad event line %q", l)
		}
		_ = prev
		prev = l
	}
}
