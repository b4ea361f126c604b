package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"deadlineqos/internal/packet"
)

// Snapshot is a serialisable summary of one run's per-class metrics, for
// archiving experiment results and regression comparison (qosbench
// -before -after). All latencies are nanoseconds; throughputs are
// fractions of aggregate host link capacity.
type Snapshot struct {
	// Label identifies the run (architecture, load, seed...).
	Label string `json:"label"`
	// WindowNs is the measurement window length.
	WindowNs int64 `json:"window_ns"`
	// Classes maps class name to its metrics.
	Classes map[string]ClassSnapshot `json:"classes"`
}

// ClassSnapshot is one class's serialised metrics.
type ClassSnapshot struct {
	GeneratedPackets uint64  `json:"generated_packets"`
	DeliveredPackets uint64  `json:"delivered_packets"`
	Throughput       float64 `json:"throughput"`
	OfferedLoad      float64 `json:"offered_load"`
	LatencyMeanNs    float64 `json:"latency_mean_ns"`
	LatencyP50Ns     int64   `json:"latency_p50_ns"`
	LatencyP95Ns     int64   `json:"latency_p95_ns"`
	LatencyP99Ns     int64   `json:"latency_p99_ns"`
	LatencyP999Ns    int64   `json:"latency_p999_ns"`
	LatencyMaxNs     float64 `json:"latency_max_ns"`
	// Deadline slack at delivery (negative = missed deadline).
	SlackMeanNs     float64 `json:"slack_mean_ns"`
	SlackP50Ns      int64   `json:"slack_p50_ns"`
	MissedDeadlines uint64  `json:"missed_deadlines"`
	MissRate        float64 `json:"miss_rate"`
	JitterMeanNs    float64 `json:"jitter_mean_ns"`
	FrameCount      uint64  `json:"frame_count"`
	FrameMeanNs     float64 `json:"frame_mean_ns"`
	FrameP99Ns      int64   `json:"frame_p99_ns"`
	// Fault/recovery counters (omitted in fault-free runs).
	CorruptedPackets     uint64 `json:"corrupted_packets,omitempty"`
	LostPackets          uint64 `json:"lost_packets,omitempty"`
	RetransmittedPackets uint64 `json:"retransmitted_packets,omitempty"`
	DemotedPackets       uint64 `json:"demoted_packets,omitempty"`
	DuplicateDrops       uint64 `json:"duplicate_drops,omitempty"`
	// Eviction/value counters of value-aware dropping policies (omitted
	// under policies that never shed at the NIC).
	EvictedPackets uint64 `json:"evicted_packets,omitempty"`
	GeneratedValue int64  `json:"generated_value,omitempty"`
	DeliveredValue int64  `json:"delivered_value,omitempty"`
	EvictedValue   int64  `json:"evicted_value,omitempty"`
}

// Snapshot summarises the collector's current state.
func (c *Collector) Snapshot(label string) *Snapshot {
	s := &Snapshot{
		Label:    label,
		WindowNs: int64(c.Window()),
		Classes:  make(map[string]ClassSnapshot, packet.NumClasses),
	}
	for cl := packet.Class(0); cl < packet.NumClasses; cl++ {
		cs := &c.PerClass[cl]
		s.Classes[cl.String()] = ClassSnapshot{
			GeneratedPackets:     cs.GeneratedPackets,
			DeliveredPackets:     cs.DeliveredPackets,
			Throughput:           c.Throughput(cl),
			OfferedLoad:          c.OfferedLoad(cl),
			LatencyMeanNs:        cs.PacketLatency.Mean(),
			LatencyP50Ns:         int64(cs.LatencyHist.Quantile(0.50)),
			LatencyP95Ns:         int64(cs.LatencyHist.Quantile(0.95)),
			LatencyP99Ns:         int64(cs.LatencyHist.Quantile(0.99)),
			LatencyP999Ns:        int64(cs.LatencyHist.Quantile(0.999)),
			LatencyMaxNs:         cs.PacketLatency.Max(),
			SlackMeanNs:          cs.Slack.Mean(),
			SlackP50Ns:           int64(cs.SlackHist.Quantile(0.50)),
			MissedDeadlines:      cs.MissedDeadlines,
			MissRate:             c.MissRate(cl),
			JitterMeanNs:         cs.Jitter.Mean(),
			FrameCount:           cs.FrameLatency.Count(),
			FrameMeanNs:          cs.FrameLatency.Mean(),
			FrameP99Ns:           int64(cs.FrameHist.Quantile(0.99)),
			CorruptedPackets:     cs.CorruptedPackets,
			LostPackets:          cs.LostPackets,
			RetransmittedPackets: cs.RetransmittedPackets,
			DemotedPackets:       cs.DemotedPackets,
			DuplicateDrops:       cs.DuplicateDrops,
			EvictedPackets:       cs.EvictedPackets,
			GeneratedValue:       cs.GeneratedValue,
			DeliveredValue:       cs.DeliveredValue,
			EvictedValue:         cs.EvictedValue,
		}
	}
	return s
}

// WriteJSON serialises the snapshot with indentation.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses a snapshot written by WriteJSON.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("stats: parsing snapshot: %w", err)
	}
	if s.Classes == nil {
		return nil, fmt.Errorf("stats: snapshot has no classes")
	}
	return &s, nil
}

// Delta describes one metric's change between two snapshots.
type Delta struct {
	Class, Metric string
	Before, After float64
	// Rel is the relative change (After-Before)/max(|Before|, eps).
	Rel float64
}

// Compare returns the metric deltas between two snapshots whose relative
// change exceeds tolerance (e.g. 0.1 = 10%). Metrics compared: throughput,
// mean and p99 latency, deadline-miss rate, jitter, and frame mean where
// present.
func Compare(before, after *Snapshot, tolerance float64) []Delta {
	var out []Delta
	for class, b := range before.Classes {
		a, ok := after.Classes[class]
		if !ok {
			continue
		}
		metrics := []struct {
			name   string
			bv, av float64
		}{
			{"throughput", b.Throughput, a.Throughput},
			{"latency_mean_ns", b.LatencyMeanNs, a.LatencyMeanNs},
			{"latency_p99_ns", float64(b.LatencyP99Ns), float64(a.LatencyP99Ns)},
			{"miss_rate", b.MissRate, a.MissRate},
			{"jitter_mean_ns", b.JitterMeanNs, a.JitterMeanNs},
			{"frame_mean_ns", b.FrameMeanNs, a.FrameMeanNs},
		}
		for _, m := range metrics {
			if m.bv == 0 && m.av == 0 {
				continue
			}
			base := m.bv
			if base < 0 {
				base = -base
			}
			if base < 1e-12 {
				base = 1e-12
			}
			rel := (m.av - m.bv) / base
			if rel > tolerance || rel < -tolerance {
				out = append(out, Delta{Class: class, Metric: m.name, Before: m.bv, After: m.av, Rel: rel})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}

// String renders a delta for reports.
func (d Delta) String() string {
	return fmt.Sprintf("%s %s: %.4g -> %.4g (%+.1f%%)", d.Class, d.Metric, d.Before, d.After, 100*d.Rel)
}
