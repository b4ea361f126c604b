package network

import (
	"bytes"
	"strings"
	"testing"

	"deadlineqos/internal/metrics"
	"deadlineqos/internal/session"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
)

// metricsConfig is the metrics-plane acceptance scenario: the small Clos
// under load with sessions and invariant checking, sharded as requested.
func metricsConfig(shards int) Config {
	cfg := SmallConfig()
	cfg.WarmUp = 1 * units.Millisecond
	cfg.Measure = 6 * units.Millisecond
	cfg.Load = 0.8
	cfg.Shards = shards
	cfg.CheckInvariants = true
	cfg.Sessions = &session.Config{
		InterArrival: 300 * units.Microsecond,
		HoldMean:     1500 * units.Microsecond,
	}
	return cfg
}

// TestMissBurstTripsFlightRecorder arms the tightest possible SLO (one
// missed deadline) under overload and expects the flight ring, fed by a
// full-sampling tracer that keeps no log, to freeze with the events
// leading up to the first miss.
func TestMissBurstTripsFlightRecorder(t *testing.T) {
	cfg := metricsConfig(2)
	cfg.Load = 1.0
	fr := trace.NewFlightRecorder(0)
	tr, err := trace.New(trace.Config{SampleRate: 1, DiscardEvents: true, Flight: fr})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tracer = tr
	cfg.MissBurstCount = 1
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	tripped, reason, at := fr.Tripped()
	if !tripped {
		t.Fatal("overloaded run missed no deadline burst; SLO never tripped")
	}
	if reason != "deadline-miss-burst" || at <= 0 {
		t.Fatalf("trip (%q, %v), want deadline-miss-burst at a positive time", reason, at)
	}
	evs := fr.Events()
	if len(evs) == 0 {
		t.Fatal("tripped flight recorder holds no events")
	}
	var buf bytes.Buffer
	if err := fr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(evs)+1 {
		t.Fatalf("JSONL dump has %d lines for %d events + header", lines, len(evs))
	}
	// The miss burst also shows on the scrape surface.
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "qos_host_missed_total") {
		t.Fatalf("prom render missing qos_host_missed_total:\n%s", prom.String())
	}
}
