package soak

import (
	"encoding/json"
	"testing"
)

// TestSoakSmoke runs two randomized epochs and expects every invariant to
// hold.
func TestSoakSmoke(t *testing.T) {
	rep, err := Run(Options{Seed: 1, Epochs: 2, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != 2 {
		t.Fatalf("got %d epoch reports, want 2", len(rep.Epochs))
	}
	for _, ep := range rep.Epochs {
		if ep.Results.Conservation.DeliveredUnique == 0 {
			t.Fatalf("epoch %d delivered nothing", ep.Epoch)
		}
	}
}

// TestSoakEpochSeedDecorrelated checks neighbouring epochs draw distinct
// fault plans (the splitmix64 finalizer actually separates the streams).
func TestSoakEpochSeedDecorrelated(t *testing.T) {
	s0, s1 := EpochSeed(1, 0), EpochSeed(1, 1)
	if s0 == s1 {
		t.Fatal("adjacent epoch seeds collide")
	}
	c0 := EpochConfig(Options{Seed: 1}, 0)
	c1 := EpochConfig(Options{Seed: 1}, 1)
	b0, _ := json.Marshal(c0.Faults.Events)
	b1, _ := json.Marshal(c1.Faults.Events)
	if string(b0) == string(b1) {
		t.Fatal("adjacent epochs drew identical fault plans")
	}
}
