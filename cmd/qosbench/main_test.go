package main

import (
	"slices"
	"testing"
)

// TestGate: at 40% tolerance the gate passes a reading equal to its
// baseline and fails a synthetic 2x slowdown, events/s below the floor,
// mallocs/event above the ceiling, a sharded wall time above 1+tol, and
// a baseline whose rows do not match the measurement's.
func TestGate(t *testing.T) {
	scalar := baseline{Scenario: "simrate", Runs: []row{{Shards: 1, WallNs: 100, EventsPerSec: 1e6, MallocsPerEvent: 0.02}}}
	sharded := baseline{Scenario: "parsim", Runs: []row{{Shards: 1, WallNs: 100, EventsPerSec: 1e6}, {Shards: 2, WallNs: 60, EventsPerSec: 1.5e6}}}
	with := func(b baseline, f func(*row)) baseline {
		b.Runs = slices.Clone(b.Runs)
		f(&b.Runs[len(b.Runs)-1])
		return b
	}
	cases := []struct {
		name      string
		got, base baseline
		sharded   bool
		slowdown  float64
		ok        bool
	}{
		{"equal", scalar, scalar, false, 0, true},
		{"2x slowdown", scalar, scalar, false, 2, false},
		{"above the floor", with(scalar, func(r *row) { r.EventsPerSec = 0.61e6 }), scalar, false, 0, true},
		{"below the floor", with(scalar, func(r *row) { r.EventsPerSec = 0.59e6 }), scalar, false, 0, false},
		{"allocations under the ceiling", with(scalar, func(r *row) { r.MallocsPerEvent = 0.077 }), scalar, false, 0, true},
		{"allocations over the ceiling", with(scalar, func(r *row) { r.MallocsPerEvent = 0.079 }), scalar, false, 0, false},
		{"sharded equal", sharded, sharded, true, 0, true},
		{"sharded 2x slowdown", sharded, sharded, true, 2, false},
		{"sharded under the ceiling", with(sharded, func(r *row) { r.WallNs = 83 }), sharded, true, 0, true},
		{"sharded over the ceiling", with(sharded, func(r *row) { r.WallNs = 85 }), sharded, true, 0, false},
		{"rows differ", scalar, sharded, false, 0, false},
	}
	for _, tc := range cases {
		if err := gate(tc.got, tc.base, tc.sharded, 0.4, tc.slowdown); (err == nil) != tc.ok {
			t.Errorf("%s: gate error %v, want pass=%v", tc.name, err, tc.ok)
		}
	}
}
