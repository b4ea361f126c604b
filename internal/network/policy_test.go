package network

import (
	"testing"

	"deadlineqos/internal/coflow"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/policy"
	"deadlineqos/internal/units"
)

// TestPolicyNameInResults pins the policy identity threading: the run
// reports the resolved policy, with nil resolving to the default.
func TestPolicyNameInResults(t *testing.T) {
	cfg := SmallConfig()
	cfg.Load = 0.1
	cfg.Measure = 2 * units.Millisecond
	cfg.WarmUp = units.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "default" {
		t.Fatalf("nil policy resolved to %q, want default", res.Policy)
	}
	cfg.Policy = policy.ValueDrop(0, false)
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "value-drop" {
		t.Fatalf("policy name %q, want value-drop", res.Policy)
	}
}

// coflowConfig is the scenario the coflow tests share: a lightly loaded
// small network with a ring collective starting at the warm-up boundary.
func coflowConfig() Config {
	cfg := SmallConfig()
	cfg.Load = 0.25
	cfg.WarmUp = units.Millisecond
	cfg.Measure = 20 * units.Millisecond
	cfg.Coflows = &coflow.Config{StartAt: cfg.WarmUp}
	return cfg
}

func TestCoflowWorkloadCompletes(t *testing.T) {
	for _, pol := range []policy.Policy{nil, policy.CoflowEDF()} {
		cfg := coflowConfig()
		cfg.Policy = pol
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cr := res.Coflows
		if cr == nil {
			t.Fatal("no coflow results")
		}
		if cr.Coflows != cfg.Topology.Hosts()-1 {
			t.Fatalf("coflows %d, want %d rounds", cr.Coflows, cfg.Topology.Hosts()-1)
		}
		if cr.Admitted+cr.Rejected != cr.Coflows {
			t.Fatalf("admission split %d+%d != %d", cr.Admitted, cr.Rejected, cr.Coflows)
		}
		if cr.Admitted == 0 {
			t.Fatalf("sigma pass admitted nothing on a lightly loaded fabric")
		}
		if !cr.AllDone {
			t.Fatalf("policy %v: collective incomplete: %d of %d rounds", res.Policy, cr.Completed, cr.Coflows)
		}
		if cr.CompletionTime <= 0 {
			t.Fatalf("completion time %v", cr.CompletionTime)
		}
		if cr.AdmittedMet == 0 {
			t.Fatalf("policy %v: no admitted round met its deadline (max lateness %v)", res.Policy, cr.MaxLateness)
		}
		if err := res.Conservation.Check(); err != nil {
			t.Fatalf("policy %v: %v", res.Policy, err)
		}
	}
}

// TestValueDropEvictsUnderHotspot drives a best-effort hotspot into a
// tightly bounded NIC queue and checks the eviction path end to end:
// packets are shed, the books balance, and the shed value is accounted.
func TestValueDropEvictsUnderHotspot(t *testing.T) {
	cfg := SmallConfig()
	cfg.Load = 1.0
	cfg.ClassShare = [packet.NumClasses]float64{0.1, 0.1, 0.6, 0.2}
	cfg.HotspotFraction = 0.7
	cfg.HotspotHost = 0
	cfg.WarmUp = units.Millisecond
	cfg.Measure = 10 * units.Millisecond
	cfg.Policy = policy.ValueDrop(32*units.Kilobyte, false)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var evicted uint64
	for cl := packet.Class(0); cl < packet.NumClasses; cl++ {
		cs := &res.PerClass[cl]
		evicted += cs.EvictedPackets
		if cl < packet.BestEffort && cs.EvictedPackets != 0 {
			t.Fatalf("regulated class %v evicted %d packets", cl, cs.EvictedPackets)
		}
	}
	if evicted == 0 {
		t.Fatal("bounded queue under a hotspot evicted nothing")
	}
	if res.Conservation.EvictedAtNIC == 0 {
		t.Fatal("conservation saw no NIC evictions")
	}
	if err := res.Conservation.Check(); err != nil {
		t.Fatal(err)
	}
	if wg := res.WeightedGoodput(); wg <= 0 || wg >= 1 {
		t.Fatalf("weighted goodput %v out of (0, 1) under eviction", wg)
	}
}
