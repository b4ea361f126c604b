package network

import (
	"fmt"
	"strings"
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
	if tr.Len() == 0 {
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
	// The prober sizes each series at its first tick, so none has room
	// for another tick's rows, as growth by append would leave.
	ticks := len(res.Telemetry.Engine)
	for _, s := range []struct {
		name     string
		len, cap int
	}{
		{"port", len(res.Telemetry.Ports), cap(res.Telemetry.Ports)},
		{"engine", ticks, cap(res.Telemetry.Engine)},
	} {
		if rows := s.len / ticks; s.cap-s.len >= rows {
			t.Errorf("%d %s samples in room for %d: the series grew past its first tick's sizing",
				s.len, s.name, s.cap)
		}
	}

	if res.Perf.Events == 0 || res.Perf.WallNs <= 0 || res.Perf.EventsPerSec <= 0 {
		t.Errorf("engine profile not filled: %+v", res.Perf)
	}
	if res.Perf.MaxPending <= 0 {
		t.Errorf("max pending %d not recorded", res.Perf.MaxPending)
	}
}

// TestTraceExportsAreShardInvariant: the JSONL and Chrome exports, the
// drop count and the sampled-packet count of a traced run are the same
// at 1, 2 and 4 shards, both under the default event cap and under one
// that binds. The cap keeps the run's first MaxEvents events, not each
// shard's; the Chrome export keeps every packet's events in causal
// order, wherever its life crossed a shard boundary.
func TestTraceExportsAreShardInvariant(t *testing.T) {
	render := func(maxEvents, shards int) string {
		cfg := SmallConfig()
		cfg.Load = 0.8
		cfg.WarmUp = 200 * units.Microsecond
		cfg.Measure = 2 * units.Millisecond
		cfg.Shards = shards
		tr, err := trace.New(trace.Config{SampleRate: 0.05, Seed: cfg.Seed, MaxEvents: maxEvents})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Tracer = tr
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "dropped=%d sampled=%d events=%d\n", tr.Dropped(), tr.SampledPackets(), tr.Len())
		if err := tr.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, maxEvents := range []int{0, 2000} {
		want := render(maxEvents, 1)
		head, _, _ := strings.Cut(want, "\n")
		if maxEvents > 0 && strings.HasPrefix(head, "dropped=0 ") {
			t.Fatalf("cap %d does not bind: %s", maxEvents, head)
		}
		for _, shards := range []int{2, 4} {
			got := render(maxEvents, shards)
			if got == want {
				continue
			}
			gotHead, _, _ := strings.Cut(got, "\n")
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Errorf("cap %d, %d shards: exports differ from 1 shard at byte %d (%s against %s)",
				maxEvents, shards, i, gotHead, head)
		}
	}
}
