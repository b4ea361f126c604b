// Package cli holds the small helpers shared by the command-line tools:
// scale selection (quick vs paper), duration parsing, and topology
// construction from flag values.
package cli

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"deadlineqos/internal/experiments"
	"deadlineqos/internal/policy"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/units"
)

// ShardsFlag registers the shared -shards flag: how many engine
// goroutines each single simulation runs across (see
// network.Config.Shards). Results are byte-identical at every shard
// count; only wall-clock time changes. Orthogonal to qostables' -par,
// which parallelises across runs.
func ShardsFlag() *int {
	return flag.Int("shards", 1, "engine shards per simulation (1 = sequential, byte-identical results at any value)")
}

// PolicyFlag registers the shared -policy flag: which scheduling policy
// the run uses (see internal/policy). Every CLI that runs a single
// network uses this helper so the knob is spelled identically everywhere;
// the empty default keeps the seed behaviour byte-identical.
func PolicyFlag() *string {
	return flag.String("policy", "",
		"scheduling policy: "+strings.Join(policy.Names(), "|")+" (empty = default, byte-identical to the pre-policy simulator)")
}

// CoflowsFlag registers the shared -coflows flag: attach the ring coflow
// workload (σ-order deadline admission through the CAC, rejected rounds
// demoted to best-effort) on top of the configured traffic.
func CoflowsFlag() *bool {
	return flag.Bool("coflows", false, "attach the ring coflow workload (sigma-order admission; rejected rounds run best-effort)")
}

// Scale resolves an experiment scale name into Options.
//
//	quick — 16-host network, short windows (seconds per experiment)
//	paper — the full 128-endpoint MIN of §4.1 (minutes per sweep)
func Scale(name string) (experiments.Options, error) {
	switch name {
	case "quick":
		return experiments.Quick(), nil
	case "paper":
		return experiments.Paper(), nil
	default:
		return experiments.Options{}, fmt.Errorf("unknown scale %q (want quick|paper)", name)
	}
}

// ParseDuration converts a human duration ("250us", "10ms", "1.5s", plain
// nanoseconds "5000") into simulation cycles.
func ParseDuration(s string) (units.Time, error) {
	s = strings.TrimSpace(s)
	unit := units.Nanosecond
	num := s
	switch {
	case strings.HasSuffix(s, "us"):
		unit, num = units.Microsecond, strings.TrimSuffix(s, "us")
	case strings.HasSuffix(s, "ms"):
		unit, num = units.Millisecond, strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "ns"):
		unit, num = units.Nanosecond, strings.TrimSuffix(s, "ns")
	case strings.HasSuffix(s, "s"):
		unit, num = units.Second, strings.TrimSuffix(s, "s")
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q: %w", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative duration %q", s)
	}
	return units.Time(v * float64(unit)), nil
}

// ParseSize converts a human byte size ("32KB", "1MB", plain bytes
// "4096") into units.Size.
func ParseSize(s string) (units.Size, error) {
	s = strings.TrimSpace(s)
	unit := units.Size(1)
	num := s
	switch {
	case strings.HasSuffix(s, "MB"):
		unit, num = units.Megabyte, strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		unit, num = units.Kilobyte, strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "B"):
		num = strings.TrimSuffix(s, "B")
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative size %q", s)
	}
	return units.Size(v * float64(unit)), nil
}

// ParseTopology builds a topology from a flag value:
//
//	paper          — the 128-endpoint MIN (16 leaves x 8 + 8 spines)
//	small          — 16 hosts (4 leaves x 4 + 4 spines)
//	clos:L,D,U     — folded Clos with L leaves, D hosts/leaf, U spines
//	tree:K,N       — k-ary n-tree
//	single:N       — N hosts on one switch
func ParseTopology(s string) (topology.Topology, error) {
	switch {
	case s == "paper":
		return topology.PaperMIN(), nil
	case s == "small":
		return topology.NewFoldedClos(4, 4, 4)
	case strings.HasPrefix(s, "clos:"):
		var l, d, u int
		if _, err := fmt.Sscanf(s, "clos:%d,%d,%d", &l, &d, &u); err != nil {
			return nil, fmt.Errorf("bad clos spec %q (want clos:L,D,U)", s)
		}
		return topology.NewFoldedClos(l, d, u)
	case strings.HasPrefix(s, "tree:"):
		var k, n int
		if _, err := fmt.Sscanf(s, "tree:%d,%d", &k, &n); err != nil {
			return nil, fmt.Errorf("bad tree spec %q (want tree:K,N)", s)
		}
		return topology.NewKAryNTree(k, n)
	case strings.HasPrefix(s, "single:"):
		var n int
		if _, err := fmt.Sscanf(s, "single:%d", &n); err != nil || n < 2 {
			return nil, fmt.Errorf("bad single spec %q (want single:N, N>=2)", s)
		}
		return &topology.SingleSwitch{N: n}, nil
	default:
		return nil, fmt.Errorf("unknown topology %q", s)
	}
}

// ParseSeeds converts a comma-separated list ("1,2,3") into seed values.
func ParseSeeds(s string) ([]uint64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty seed list")
	}
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseLoads converts a comma-separated list ("0.1,0.5,1.0") into loads.
func ParseLoads(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty load list")
	}
	var loads []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q: %w", part, err)
		}
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("load %v out of [0,1]", v)
		}
		loads = append(loads, v)
	}
	return loads, nil
}
