package network

// Simulation fuzzing: randomised full-stack runs over every architecture
// and a range of topologies, checking the global invariants no single-run
// test can promise: packet conservation, per-flow in-order delivery, and
// the flow-control guarantee that nothing ever overflows (overflow panics
// inside the switch model would fail these runs).

import (
	"fmt"
	"testing"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/faults"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
)

// fuzzTopologies builds the small networks the fuzz matrix runs on.
func fuzzTopologies(t *testing.T) map[string]topology.Topology {
	t.Helper()
	clos, err := topology.NewFoldedClos(4, 4, 2) // 16 hosts, oversubscribed 2:1
	if err != nil {
		t.Fatal(err)
	}
	tree, err := topology.NewKAryNTree(2, 3) // 8 hosts, 3 stages
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := topology.NewMesh2D(3, 3, 2) // 18 hosts, direct network
	if err != nil {
		t.Fatal(err)
	}
	return map[string]topology.Topology{
		"clos-oversub": clos,
		"tree-3stage":  tree,
		"mesh-3x3":     mesh,
	}
}

func TestFuzzMatrixInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz matrix is slow")
	}
	for name, topo := range fuzzTopologies(t) {
		for _, a := range arch.All() {
			for seed := uint64(1); seed <= 2; seed++ {
				label := fmt.Sprintf("%s/%s/seed%d", name, a.Flag(), seed)
				cfg := DefaultConfig()
				cfg.Topology = topo
				cfg.Arch = a
				cfg.Seed = seed
				cfg.Load = 0.9
				cfg.WarmUp = 200 * units.Microsecond
				cfg.Measure = 2 * units.Millisecond
				cfg.ControlDests = 3
				cfg.BEDests = 3

				cfg.Tracer = fullTracer(t)
				res, err := Run(cfg)
				if err != nil {
					// The oversubscribed Clos may reject the video
					// reservations at high load: a correct admission
					// outcome, not a failure — rerun at lower load.
					cfg.Load = 0.4
					cfg.Tracer = fullTracer(t)
					res, err = Run(cfg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				var delivered, generated int
				lastSeq := map[packet.FlowID]int64{}
				reorders := 0
				walk(t, cfg.Tracer, func(ev trace.Event) {
					switch ev.Kind {
					case trace.KindGenerated:
						generated++
					case trace.KindDelivered:
						delivered++
						if last, ok := lastSeq[ev.Flow]; ok && int64(ev.Seq) <= last {
							reorders++
						}
						lastSeq[ev.Flow] = int64(ev.Seq)
					}
				})
				if reorders > 0 {
					t.Errorf("%s: %d out-of-order deliveries", label, reorders)
				}
				if delivered == 0 || generated == 0 {
					t.Errorf("%s: no traffic (gen=%d dlvr=%d)", label, generated, delivered)
				}
				if delivered > generated {
					t.Errorf("%s: delivered %d > generated %d", label, delivered, generated)
				}
				// Throughput can never exceed the physical aggregate.
				var thru float64
				for cl := packet.Class(0); cl < packet.NumClasses; cl++ {
					thru += res.Throughput(cl)
				}
				if thru > 1.0 {
					t.Errorf("%s: aggregate throughput %.2f > 1", label, thru)
				}
				if err := res.Conservation.Check(); err != nil {
					t.Errorf("%s: %v", label, err)
				}
			}
		}
	}
}

// TestFuzzFaultPlans drives randomised fault plans — flaps, derates and
// bit errors drawn by faults.RandomPlan — against the reliability layer
// over several topologies and architectures, asserting the two properties
// fault injection must never break: the run terminates, and the
// conservation invariant balances. Each plan replays deterministically, so
// a failing (topology, arch, seed) triple reproduces exactly.
func TestFuzzFaultPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-plan fuzzing is slow")
	}
	for name, topo := range fuzzTopologies(t) {
		for _, a := range []arch.Arch{arch.Traditional2VC, arch.Advanced2VC, arch.Ideal} {
			for seed := uint64(1); seed <= 3; seed++ {
				label := fmt.Sprintf("%s/%s/seed%d", name, a.Flag(), seed)
				cfg := DefaultConfig()
				cfg.Topology = topo
				cfg.Arch = a
				cfg.Seed = seed
				cfg.Load = 0.7
				cfg.WarmUp = 200 * units.Microsecond
				cfg.Measure = 3 * units.Millisecond
				cfg.ControlDests = 3
				cfg.BEDests = 3
				cfg.Reliability = hostif.Reliability{Enabled: true}
				cfg.CheckInvariants = true
				cfg.Faults = faults.RandomPlan(seed*977, allLinkIDs(topo),
					cfg.WarmUp+cfg.Measure, faults.RandomConfig{
						Flaps:    3,
						MinDown:  20 * units.Microsecond,
						MaxDown:  300 * units.Microsecond,
						Derates:  2,
						MinScale: 0.25,
						BERLinks: 4,
						MaxBER:   1e-5,
					})
				cfg.Faults.DefaultBER = 1e-7

				res, err := Run(cfg)
				if err != nil {
					cfg.Load = 0.4
					res, err = Run(cfg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				if err := res.Conservation.Check(); err != nil {
					t.Errorf("%s: %v\n%v", label, err, res.Conservation)
				}
				if res.Conservation.DeliveredUnique == 0 {
					t.Errorf("%s: no deliveries under faults", label)
				}
				if res.FaultEvents == 0 {
					t.Errorf("%s: no fault events executed", label)
				}
			}
		}
	}
}
