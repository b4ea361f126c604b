package hostif

import (
	"slices"
	"testing"

	"deadlineqos/internal/xrand"
)

// mapRxFlow is the receive-side tracker kept as two maps, the layout the
// sequence set replaced: have holds delivered seqs at or above next and
// naked the NAKed ones. It is the reference rxFlow must match.
type mapRxFlow struct {
	next        uint64
	have, naked map[uint64]struct{}
	scanned     uint64
}

func newMapRxFlow() *mapRxFlow {
	return &mapRxFlow{have: make(map[uint64]struct{}), naked: make(map[uint64]struct{})}
}

func (r *mapRxFlow) seen(seq uint64) bool {
	if seq < r.next {
		return true
	}
	_, ok := r.have[seq]
	return ok
}

func (r *mapRxFlow) mark(seq uint64) {
	r.have[seq] = struct{}{}
	delete(r.naked, seq)
	for {
		if _, ok := r.have[r.next]; !ok {
			break
		}
		delete(r.have, r.next)
		r.next++
	}
}

func (r *mapRxFlow) isNaked(seq uint64) bool { _, ok := r.naked[seq]; return ok }

func (r *mapRxFlow) gaps(seq uint64) []uint64 {
	var out []uint64
	for s := max(r.next, r.scanned); s < seq; s++ {
		if r.seen(s) || r.isNaked(s) {
			continue
		}
		r.naked[s] = struct{}{}
		out = append(out, s)
	}
	r.scanned = max(r.scanned, seq)
	return out
}

// fullScanGaps is gaps without the scan frontier: it walks all of
// [next, seq) on every call. It is the reference the frontier must match.
func (r *mapRxFlow) fullScanGaps(seq uint64) []uint64 {
	var out []uint64
	for s := r.next; s < seq; s++ {
		if r.seen(s) || r.isNaked(s) {
			continue
		}
		r.naked[s] = struct{}{}
		out = append(out, s)
	}
	return out
}

// TestGapsMatchFullScan replays random arrival orders, with losses,
// corrupted arrivals, duplicates and late retransmissions, through the
// receive-side bookkeeping of Host.Receive three times: with rxFlow, with
// the map-based tracker and with the map-based full scan. seen, every NAK
// list and the final state must agree.
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
			// Retransmissions of earlier losses rejoin at random points,
			// some of them corrupted again or duplicated.
			for len(late) > 0 && rng.Float64() < 0.3 {
				i := rng.Intn(len(late))
				wire, corrupt = append(wire, late[i]), append(corrupt, rng.Float64() < 0.1)
				if corrupt[len(corrupt)-1] || rng.Float64() < 0.1 {
					continue // stays late: retransmitted again
				}
				late = append(late[:i], late[i+1:]...)
			}
		}
		var got rxFlow
		ref, want := newMapRxFlow(), newMapRxFlow()
		for i, s := range wire {
			if corrupt[i] {
				got.naked(s)
				ref.naked[s] = struct{}{}
				want.naked[s] = struct{}{}
				continue
			}
			if got.seen(s) != ref.seen(s) || got.seen(s) != want.seen(s) {
				t.Fatalf("seed %d arrival %d (seq %d): seen %v, map %v, full scan %v",
					seed, i, s, got.seen(s), ref.seen(s), want.seen(s))
			}
			if got.seen(s) {
				continue
			}
			got.mark(s)
			ref.mark(s)
			want.mark(s)
			g, r, w := got.gaps(s), ref.gaps(s), want.fullScanGaps(s)
			if !slices.Equal(g, r) || !slices.Equal(g, w) {
				t.Fatalf("seed %d arrival %d (seq %d): gaps %v, map %v, full scan %v", seed, i, s, g, r, w)
			}
		}
		if got.got.Next() != ref.next || got.got.Next() != want.next {
			t.Fatalf("seed %d: final next %d, map %d, full scan %d", seed, got.got.Next(), ref.next, want.next)
		}
		// Above the frontier every seq must be delivered, NAKed or
		// neither alike; the maps may also keep a NAK on a seq delivered
		// since, which no scan reads.
		for s := ref.next; s < 410; s++ {
			if got.seen(s) != ref.seen(s) ||
				!ref.seen(s) && (got.got.Flagged(s) != ref.isNaked(s) || got.got.Flagged(s) != want.isNaked(s)) {
				t.Fatalf("seed %d: seq %d seen/NAKed %v/%v, map %v/%v, full scan %v/%v", seed, s,
					got.seen(s), got.got.Flagged(s), ref.seen(s), ref.isNaked(s), want.seen(s), want.isNaked(s))
			}
		}
	}
}
