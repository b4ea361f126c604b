package seqset

import (
	"sort"
	"testing"

	"deadlineqos/internal/xrand"
)

// mapSet is the reference Set: members and flags as maps, the frontier
// walked one number at a time.
type mapSet struct {
	in, flag map[uint64]struct{}
	next     uint64
}

func newMapSet() *mapSet {
	return &mapSet{in: make(map[uint64]struct{}), flag: make(map[uint64]struct{})}
}

func (m *mapSet) has(n uint64) bool { _, ok := m.in[n]; return ok }

func (m *mapSet) add(n uint64) bool {
	if m.has(n) {
		return false
	}
	m.in[n] = struct{}{}
	for m.has(m.next) {
		m.next++
	}
	return true
}

func (m *mapSet) setFlag(n uint64) {
	if n >= m.next {
		m.flag[n] = struct{}{}
	}
}

func (m *mapSet) flagged(n uint64) bool { _, ok := m.flag[n]; return ok && n >= m.next }

// arrivals returns 0..n-1 in a random nearly-in-order order: each number
// is displaced by up to jitter places, some are held back to the end, a
// few never arrive, and some arrive twice.
func arrivals(rng *xrand.Rand, n int, jitter int) []uint64 {
	type arr struct {
		key float64
		n   uint64
	}
	var as []arr
	for i := 0; i < n; i++ {
		key := float64(i + rng.Intn(jitter))
		switch x := rng.Float64(); {
		case x < 0.01: // never arrives
			continue
		case x < 0.04: // held back
			key += float64(n)
		case x > 0.97: // duplicated later
			as = append(as, arr{key + float64(rng.Intn(4*jitter)), uint64(i)})
		}
		as = append(as, arr{key, uint64(i)})
	}
	sort.SliceStable(as, func(i, j int) bool { return as[i].key < as[j].key })
	out := make([]uint64, len(as))
	for i, a := range as {
		out[i] = a.n
	}
	return out
}

// TestSetMatchesMap drives a Set and the map reference through random
// insertion orders — in order, jittered, with numbers held back, lost for
// good and duplicated, plus jumps far ahead — and random flags. Add's
// result, Next, Has and Flagged must agree after every step, and the
// ring may never exceed twice the widest window the stream needed.
func TestSetMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		rng := xrand.New(seed)
		jitter := []int{1, 3, 40, 700}[rng.Intn(4)]
		stream := arrivals(rng, 1+rng.Intn(2000), jitter)
		if rng.Intn(4) == 0 {
			// A jump far ahead, which the frontier never reaches.
			stream = append(stream, uint64(len(stream)+5000+rng.Intn(5000)))
		}
		var s Set
		ref := newMapSet()
		var top, widest uint64
		check := func(step int, n uint64) {
			t.Helper()
			if s.Has(n) != ref.has(n) || s.Flagged(n) != ref.flagged(n) {
				t.Fatalf("seed %d step %d: number %d has/flagged %v/%v, reference %v/%v",
					seed, step, n, s.Has(n), s.Flagged(n), ref.has(n), ref.flagged(n))
			}
		}
		for step, n := range stream {
			if rng.Intn(5) == 0 {
				// Flag a number near or below the frontier, or ahead of
				// everything added so far.
				f := ref.next + uint64(rng.Intn(200))
				if rng.Intn(4) == 0 && f >= 5 {
					f -= 5
				}
				s.Flag(f)
				ref.setFlag(f)
				top = max(top, f)
			}
			if got, want := s.Add(n), ref.add(n); got != want {
				t.Fatalf("seed %d step %d: Add(%d) = %v, reference %v", seed, step, n, got, want)
			}
			top = max(top, n)
			if s.Next() != ref.next {
				t.Fatalf("seed %d step %d: Next %d, reference %d", seed, step, s.Next(), ref.next)
			}
			if ref.next <= top {
				widest = max(widest, top>>6-ref.next>>6+1)
			}
			if w := uint64(len(s.ring)); w > 0 && w >= 2*widest {
				t.Fatalf("seed %d step %d: ring of %d words for a widest window of %d", seed, step, w, widest)
			}
			lo := ref.next - min(ref.next, 3)
			for m := lo; m < ref.next+70; m++ {
				check(step, m)
			}
			for k := 0; k < 8; k++ {
				check(step, uint64(rng.Intn(int(top)+130)))
			}
		}
		for m := uint64(0); m < top+130; m++ {
			check(len(stream), m)
		}
	}
}

// TestInOrderAddsKeepNoRing pins the cost of the common case: a flow
// that arrives in order allocates nothing and never builds a ring.
func TestInOrderAddsKeepNoRing(t *testing.T) {
	var s Set
	var n uint64
	if a := testing.AllocsPerRun(10000, func() {
		if !s.Add(n) {
			t.Fatalf("in-order Add(%d) reported a duplicate", n)
		}
		n++
	}); a != 0 {
		t.Fatalf("in-order Add allocates %v per call", a)
	}
	if s.ring != nil || s.Next() != n {
		t.Fatalf("in-order set kept a ring of %d words or lost its frontier (%d, want %d)",
			len(s.ring), s.Next(), n)
	}
}
