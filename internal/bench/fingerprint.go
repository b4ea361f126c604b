package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"deadlineqos/internal/network"
)

// Fingerprint hashes every shard-invariant result of a run: the sections
// the shard-determinism cross-check in internal/experiments renders as
// JSON, in the same order and labelling. Two runs of one configuration
// and seed agree on it at any shard count; host-cost fields (Perf,
// SimEvents) are left out because they legitimately differ.
func Fingerprint(res *network.Results) (string, error) {
	h := sha256.New()
	sections := []struct {
		name string
		v    any
	}{
		{"snapshot", res.Snapshot("det")},
		{"conservation", res.Conservation},
		{"fault-trace", res.FaultTrace},
		{"reliability", res.Reliability},
		{"counters", []uint64{
			res.OrderErrors, res.TakeOvers, res.XbarTransfers, res.LinkSends,
			uint64(res.PendingAtHorizon), res.LostOnLink, res.CorruptedInFlight,
			res.FaultEvents, uint64(res.OutstandingAtStop),
		}},
		{"sessions", res.Sessions},
		{"availability", res.Availability},
		{"policy", res.Policy},
		{"coflows", res.Coflows},
		{"police", res.Police},
		{"gray", res.Gray},
	}
	for _, s := range sections {
		if err := writeSection(h, s.name, s.v); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func writeSection(h hash.Hash, name string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("fingerprint section %s: %w", name, err)
	}
	fmt.Fprintf(h, "== %s ==\n%s\n", name, b)
	return nil
}
