package network

import (
	"testing"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/faults"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/units"
)

// chaosBase returns a small, fast configuration with the reliability layer
// and the delivery oracle armed.
func chaosBase() Config {
	cfg := SmallConfig()
	cfg.WarmUp = 1 * units.Millisecond
	cfg.Measure = 8 * units.Millisecond
	cfg.Load = 0.8
	cfg.Arch = arch.Advanced2VC
	cfg.Reliability = hostif.Reliability{Enabled: true}
	cfg.CheckInvariants = true
	return cfg
}

// allLinkIDs enumerates every wired switch output link of a topology.
func allLinkIDs(topo topology.Topology) []faults.LinkID {
	var ids []faults.LinkID
	for sw := 0; sw < topo.Switches(); sw++ {
		for p := 0; p < topo.Radix(sw); p++ {
			if topo.Peer(sw, p).ID != -1 {
				ids = append(ids, faults.LinkID{Switch: sw, Port: p})
			}
		}
	}
	return ids
}

// chaosPlan builds a representative fault plan: several flaps, a derate
// epoch and a uniform bit-error rate.
func chaosPlan(cfg *Config) *faults.Plan {
	horizon := cfg.WarmUp + cfg.Measure
	plan := faults.RandomPlan(42, allLinkIDs(cfg.Topology), horizon, faults.RandomConfig{
		Flaps:   4,
		MinDown: 50 * units.Microsecond,
		MaxDown: 400 * units.Microsecond,
		Derates: 2,
	})
	plan.DefaultBER = 1e-6
	return plan
}

// TestChaosConservation drives the full fault model — flaps, derating and
// bit errors — against the reliability layer and checks that the run
// terminates with the conservation invariant intact and actual recovery
// activity observed.
func TestChaosConservation(t *testing.T) {
	cfg := chaosBase()
	cfg.Faults = chaosPlan(&cfg)

	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.Conservation.Check(); err != nil {
		t.Fatalf("conservation: %v\n%v", err, res.Conservation)
	}
	if res.FaultEvents == 0 {
		t.Fatal("fault plan executed no events")
	}
	c := res.Conservation
	if c.DeliveredUnique == 0 {
		t.Fatal("no packets delivered under faults")
	}
	if c.ArrivedCorrupt == 0 && c.LostOnLink == 0 {
		t.Fatalf("fault plan injected no packet losses: %v", c)
	}
	if c.Retransmissions == 0 {
		t.Fatalf("reliability layer never retransmitted: %v", c)
	}
	if res.Reliability.Acked == 0 {
		t.Fatal("no packets acknowledged")
	}
	// Recovery must actually recover: almost every unique packet that made
	// it out of its NIC (generated minus the end-of-run staging backlog)
	// should be delivered despite corruption and flaps.
	injected := float64(c.Generated - c.StagedAtStop)
	if frac := float64(c.DeliveredUnique) / injected; frac < 0.97 {
		t.Fatalf("only %.1f%% of injected unique packets delivered: %v", 100*frac, c)
	}
}

// TestChaosWithoutReliability checks that conservation holds when nothing
// recovers lost packets: corrupt and flapped copies are accounted, not
// resurrected.
func TestChaosWithoutReliability(t *testing.T) {
	cfg := chaosBase()
	cfg.Reliability = hostif.Reliability{}
	cfg.Faults = chaosPlan(&cfg)

	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.Conservation.Check(); err != nil {
		t.Fatalf("conservation: %v\n%v", err, res.Conservation)
	}
	c := res.Conservation
	if c.Retransmissions != 0 || c.ArrivedDup != 0 {
		t.Fatalf("reliability activity in a run without the layer: %v", c)
	}
	if c.ArrivedCorrupt == 0 && c.LostOnLink == 0 {
		t.Fatalf("fault plan injected no packet losses: %v", c)
	}
}

// TestConservationFaultFree checks that the accounting balances in a
// vanilla run too — the invariant is not chaos-only.
func TestConservationFaultFree(t *testing.T) {
	cfg := chaosBase()
	cfg.Reliability = hostif.Reliability{}
	cfg.Faults = nil

	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.Conservation.Check(); err != nil {
		t.Fatalf("conservation: %v\n%v", err, res.Conservation)
	}
	c := res.Conservation
	if c.LostOnLink != 0 || c.ArrivedCorrupt != 0 {
		t.Fatalf("losses in a fault-free run: %v", c)
	}
	if c.Generated == 0 || c.DeliveredUnique == 0 {
		t.Fatalf("no traffic: %v", c)
	}
}

// TestChaosReliabilityRecoversAll runs a gentler fault pattern and lets
// the network drain far past the last fault; with the reliability layer on,
// every packet generated well before the horizon must be delivered exactly
// once.
func TestChaosReliabilityRecoversAll(t *testing.T) {
	cfg := chaosBase()
	cfg.Load = 0.3
	cfg.Measure = 12 * units.Millisecond
	// All faults end by 4 ms, leaving >9 ms of fault-free drain.
	plan := &faults.Plan{
		Seed: 7,
		Events: []faults.Event{
			{At: 1 * units.Millisecond, Link: faults.LinkID{Switch: 0, Port: 0}, Kind: faults.LinkDown},
			{At: 1500 * units.Microsecond, Link: faults.LinkID{Switch: 0, Port: 0}, Kind: faults.LinkUp},
			{At: 2 * units.Millisecond, Link: faults.LinkID{Switch: 0, Port: 4}, Kind: faults.LinkDown},
			{At: 2200 * units.Microsecond, Link: faults.LinkID{Switch: 0, Port: 4}, Kind: faults.LinkUp},
			{At: 3 * units.Millisecond, Link: faults.LinkID{Switch: 0, Port: 5}, Kind: faults.Derate, Scale: 0.3},
			{At: 4 * units.Millisecond, Link: faults.LinkID{Switch: 0, Port: 5}, Kind: faults.Derate, Scale: 1},
		},
		DefaultBER: 1e-7,
	}
	cfg.Faults = plan

	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.Conservation.Check(); err != nil {
		t.Fatalf("conservation: %v\n%v", err, res.Conservation)
	}
	c := res.Conservation
	if c.DoubleDeliveries != 0 {
		t.Fatalf("double deliveries: %v", c)
	}
	// Everything except the tail still in flight must be delivered.
	pending := c.StagedAtStop + c.InNetworkAtStop + uint64(res.OutstandingAtStop)
	if c.DeliveredUnique+pending < c.Generated {
		t.Fatalf("lost packets not recovered: delivered %d + pending %d < generated %d",
			c.DeliveredUnique, pending, c.Generated)
	}
}
