package hostif

import (
	"slices"
	"testing"

	"deadlineqos/internal/xrand"
)

// fullScanGaps is gaps without the scan frontier: it walks all of
// [next, seq) on every call. It is the reference the frontier must match.
func fullScanGaps(r *rxFlow, seq uint64) []uint64 {
	var out []uint64
	for s := r.next; s < seq; s++ {
		if _, got := r.have[s]; got {
			continue
		}
		if _, nd := r.naked[s]; nd {
			continue
		}
		r.naked[s] = struct{}{}
		out = append(out, s)
	}
	return out
}

// TestGapsMatchFullScan replays random arrival orders, with losses,
// corrupted arrivals, duplicates and late retransmissions, through the
// receive-side bookkeeping of Host.Receive twice: once with gaps, once
// with the full-scan reference. Every NAK list and the final state must
// agree.
func TestGapsMatchFullScan(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		rng := xrand.New(seed)
		// The sender's wire order: each seq once, some lost or corrupted
		// and retransmitted later, some duplicated.
		var wire []uint64
		var corrupt []bool
		var late []uint64
		for s := uint64(0); s < 400; s++ {
			switch x := rng.Float64(); {
			case x < 0.1: // lost
				late = append(late, s)
			case x < 0.15: // corrupted on the wire
				wire, corrupt = append(wire, s), append(corrupt, true)
				late = append(late, s)
			default:
				wire, corrupt = append(wire, s), append(corrupt, false)
				if x > 0.97 {
					wire, corrupt = append(wire, s), append(corrupt, false)
				}
			}
			// Retransmissions of earlier losses rejoin at random points.
			for len(late) > 0 && rng.Float64() < 0.3 {
				i := rng.Intn(len(late))
				wire, corrupt = append(wire, late[i]), append(corrupt, false)
				late = append(late[:i], late[i+1:]...)
			}
		}
		got, want := newRxFlow(), newRxFlow()
		for i, s := range wire {
			if corrupt[i] {
				got.naked[s] = struct{}{}
				want.naked[s] = struct{}{}
				continue
			}
			if got.seen(s) != want.seen(s) {
				t.Fatalf("seed %d arrival %d (seq %d): seen disagrees", seed, i, s)
			}
			if got.seen(s) {
				continue
			}
			got.mark(s)
			want.mark(s)
			if g, w := got.gaps(s), fullScanGaps(want, s); !slices.Equal(g, w) {
				t.Fatalf("seed %d arrival %d (seq %d): gaps %v, full scan %v", seed, i, s, g, w)
			}
		}
		if got.next != want.next || len(got.have) != len(want.have) || len(got.naked) != len(want.naked) {
			t.Fatalf("seed %d: final next/have/naked %d/%d/%d, full scan %d/%d/%d", seed,
				got.next, len(got.have), len(got.naked), want.next, len(want.have), len(want.naked))
		}
		for s := range want.naked {
			if _, ok := got.naked[s]; !ok {
				t.Fatalf("seed %d: seq %d NAKed by the full scan only", seed, s)
			}
		}
	}
}
