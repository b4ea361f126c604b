package bench

import (
	"testing"

	"deadlineqos/internal/network"
	"deadlineqos/internal/units"
)

func shortFingerprint(t *testing.T, seed uint64) string {
	t.Helper()
	cfg := closBase(seed)
	cfg.WarmUp, cfg.Measure = 50*units.Microsecond, 250*units.Microsecond
	res, err := network.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Fingerprint(res)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestFingerprintFollowsSeed(t *testing.T) {
	a, b := shortFingerprint(t, 1), shortFingerprint(t, 1)
	if a != b {
		t.Fatalf("same seed, different fingerprints: %s vs %s", a, b)
	}
	if c := shortFingerprint(t, 2); c == a {
		t.Fatalf("seeds 1 and 2 share fingerprint %s", a)
	}
}

func TestRepSetRejectsDivergentFingerprint(t *testing.T) {
	s := &repSet{what: "w"}
	s.add(1, RepResult{Fingerprint: "aaaa"}, 1, nil)
	s.add(2, RepResult{Fingerprint: "dddd"}, 1, nil) // another input may differ
	s.add(1, RepResult{Fingerprint: "aaaa"}, 1, nil)
	s.add(1, RepResult{Fingerprint: "bbbb"}, 1, nil)
	if s.attempts != 4 || len(s.reps) != 3 || len(s.failures) != 1 {
		t.Fatalf("attempts %d, passing %d, failures %v; want 4, 3, one failure", s.attempts, len(s.reps), s.failures)
	}
	other := &repSet{what: "w@1-shard", fps: map[uint64]string{1: "cccc"}}
	other.requireSame(s, 1)
	if len(other.failures) != 1 {
		t.Fatalf("cross-configuration fingerprint mismatch not recorded: %v", other.failures)
	}
}

func TestModelChangedOnlyAgainstSeedOneRecord(t *testing.T) {
	w, err := Lookup("clos16-sat")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		seed uint64
		fp   string
		want bool
	}{
		{1, seed1Fingerprints[w.Name], false},
		{1, "moved", true},
		{2, "moved", false}, // no record for other seeds
	} {
		rep := &WorkloadReport{}
		(&Runner{Seed: tc.seed}).finish(rep, w, &repSet{fps: map[uint64]string{tc.seed: tc.fp}})
		if rep.Fingerprint != tc.fp || rep.ModelChanged != tc.want {
			t.Errorf("seed %d fingerprint %.8s: model_changed = %v, want %v", tc.seed, tc.fp, rep.ModelChanged, tc.want)
		}
	}
}
