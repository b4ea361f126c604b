// Package seqset keeps sets of per-flow sequence numbers, which arrive
// nearly in order: the numbers a destination NIC has received, or that
// the delivery oracle has seen delivered. Every number below a frontier
// is a member. Above it a Set keeps a membership bit and a flag bit per
// number, in a ring of 64-number words that spans only the frontier to
// the highest number added or flagged. A flow that arrives in order
// therefore needs no ring at all, and one with a loss or reorder gap
// needs two bits per number across the gap — never an object per number.
package seqset

import "math/bits"

// Set is a set of uint64 sequence numbers. A number at or above Next may
// also carry a flag, whose meaning is the caller's. The zero value is an
// empty set.
type Set struct {
	next uint64 // every number below next is a member; next is not
	end  uint64 // no bit is set for a number at or above end
	// ring holds the words of the numbers in [next, end): number n is bit
	// n&63 of ring[(n>>6)&(len(ring)-1)]. Every bit outside [next, end)
	// is zero.
	ring []word
}

// word holds the membership and flag bits of 64 consecutive numbers.
type word struct{ in, flag uint64 }

// Next returns the smallest number that is not a member.
func (s *Set) Next() uint64 { return s.next }

// Has reports whether n is a member.
func (s *Set) Has(n uint64) bool {
	return n < s.next || n < s.end && s.ring[s.slot(n)].in&bit(n) != 0
}

// Add inserts n and reports whether it was absent.
func (s *Set) Add(n uint64) bool {
	if s.Has(n) {
		return false
	}
	if n == s.next && s.end <= n {
		// In order, with nothing kept above: only the frontier moves.
		s.next++
		return true
	}
	s.cover(n)
	s.ring[s.slot(n)].in |= bit(n)
	if n == s.next {
		s.advance()
	}
	return true
}

// Flag sets n's flag. Flags are kept only at and above Next, so below it
// Flag does nothing; a flag clears when the frontier passes its number.
func (s *Set) Flag(n uint64) {
	if n < s.next {
		return
	}
	s.cover(n)
	s.ring[s.slot(n)].flag |= bit(n)
}

// Flagged reports whether n is at or above Next and flagged.
func (s *Set) Flagged(n uint64) bool {
	return n >= s.next && n < s.end && s.ring[s.slot(n)].flag&bit(n) != 0
}

func (s *Set) slot(n uint64) int { return int(n>>6) & (len(s.ring) - 1) }

func bit(n uint64) uint64 { return 1 << (n & 63) }

// cover extends the window [next, end) to include n, growing the ring
// when the words from next's to n's do not fit.
func (s *Set) cover(n uint64) {
	if n < s.end {
		return
	}
	if span := n>>6 - s.next>>6 + 1; span > uint64(len(s.ring)) {
		ring := make([]word, 1<<bits.Len64(span-1))
		for w := s.next >> 6; s.end > s.next && w <= (s.end-1)>>6; w++ {
			ring[int(w)&(len(ring)-1)] = s.ring[s.slot(w<<6)]
		}
		s.ring = ring
	}
	s.end = n + 1
}

// advance moves next over the run of members starting at it, clearing
// their bits, a word at a time.
func (s *Set) advance() {
	for s.next < s.end {
		w, off := &s.ring[s.slot(s.next)], s.next&63
		run := uint64(bits.TrailingZeros64(^(w.in >> off)))
		if run == 0 {
			return
		}
		m := (uint64(1)<<run - 1) << off
		w.in &^= m
		w.flag &^= m
		s.next += run
	}
}
