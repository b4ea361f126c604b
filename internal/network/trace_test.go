package network

import (
	"testing"

	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
)

// traceRun executes one small traced simulation and returns the tracer and
// results.
func traceRun(t *testing.T) (*trace.Tracer, *Results) {
	t.Helper()
	cfg := SmallConfig()
	cfg.WarmUp = 200 * units.Microsecond
	cfg.Measure = 2 * units.Millisecond
	cfg.TrackOrderErrors = true
	cfg.ProbeInterval = 100 * units.Microsecond
	tr, err := trace.New(trace.Config{SampleRate: 0.05, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tracer = tr
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

// TestTraceRunArtifacts checks that a traced run populates every
// observability surface: lifecycle events, per-hop slack aggregates,
// telemetry series, and the engine profile.
func TestTraceRunArtifacts(t *testing.T) {
	tr, res := traceRun(t)

	if tr.SampledPackets() == 0 {
		t.Error("no packets were sampled")
	}
	if len(tr.Events()) == 0 {
		t.Error("no trace events recorded")
	}
	if len(tr.HopSlack()) == 0 {
		t.Error("no per-hop dequeue slack recorded")
	}

	if res.Telemetry == nil {
		t.Fatal("ProbeInterval set but Results.Telemetry is nil")
	}
	if len(res.Telemetry.Ports) == 0 || len(res.Telemetry.Engine) == 0 {
		t.Errorf("telemetry series empty: %d port, %d engine samples",
			len(res.Telemetry.Ports), len(res.Telemetry.Engine))
	}

	if res.Perf.Events == 0 || res.Perf.WallNs <= 0 || res.Perf.EventsPerSec <= 0 {
		t.Errorf("engine profile not filled: %+v", res.Perf)
	}
	if res.Perf.MaxPending <= 0 {
		t.Errorf("max pending %d not recorded", res.Perf.MaxPending)
	}
}
