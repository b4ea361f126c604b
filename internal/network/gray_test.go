package network

import (
	"testing"

	"deadlineqos/internal/faults"
	"deadlineqos/internal/session"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/units"
)

// grayConfig builds the gray-failure acceptance scenario: leaf 0's uplink
// to spine 5 slow-drains to 20% for most of the run (a Derate that never
// clears or hardens into a PortDown), on a fabric carrying static traffic
// and dynamic sessions. SmallConfig's folded Clos leaves three alternate
// spines, so the proactive reroute always has a detour.
func grayConfig(detect bool) Config {
	cfg := chaosBase()
	cfg.Sessions = &session.Config{
		InterArrival: 300 * units.Microsecond,
		HoldMean:     1500 * units.Microsecond,
	}
	link := faults.LinkID{Switch: 0, Port: 5}
	cfg.Faults = &faults.Plan{
		Seed: 11,
		Events: []faults.Event{
			{At: 2 * units.Millisecond, Link: link, Kind: faults.Derate, Scale: 0.2},
			{At: 8 * units.Millisecond, Link: link, Kind: faults.Derate, Scale: 1.0},
		},
	}
	if detect {
		cfg.GrayPersistence = 500 * units.Microsecond
	}
	return cfg
}

// TestGrayDetectorReroutesSlowDrain checks the detector end to end: the
// persistent derate must be declared gray exactly once, every static flow
// crossing the drain must move to a detour, and each CAC endpoint must run
// a revalidation sweep — all while conservation stays balanced. The same
// scenario without the detector must not produce a Gray report.
func TestGrayDetectorReroutesSlowDrain(t *testing.T) {
	res, err := Run(grayConfig(true))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.Conservation.Check(); err != nil {
		t.Fatalf("conservation: %v\n%v", err, res.Conservation)
	}
	g := res.Gray
	if g == nil {
		t.Fatal("armed detector produced no Gray report")
	}
	if g.Detections != 1 {
		t.Fatalf("detections = %d, want 1 (one episode outlasting persistence): %v", g.Detections, g)
	}
	if g.FlowsRerouted == 0 {
		t.Fatalf("no static flow proactively rerouted off the drain: %v", g)
	}
	if g.Revalidations == 0 {
		t.Fatalf("no CAC revalidation sweep triggered: %v", g)
	}

	off, err := Run(grayConfig(false))
	if err != nil {
		t.Fatalf("Run (detector off): %v", err)
	}
	if off.Gray != nil {
		t.Fatalf("unarmed run produced a Gray report: %v", off.Gray)
	}
}

// TestGrayTransientBelowPersistence checks the dip filter: a derate that
// heals before the detector fires (persistence plus the management delay
// after it began) must not be declared gray, so the detector takes no
// action and the root CAC's ledger ends the run at the link's full limit.
// The last three heals fall between the persistence bound and the
// detection instant, the last exactly on it.
func TestGrayTransientBelowPersistence(t *testing.T) {
	link := faults.LinkID{Switch: 0, Port: 5}
	for _, tc := range []struct {
		name              string
		persistence, heal units.Time
	}{
		{"before-bound", 2 * units.Millisecond, 3 * units.Millisecond},
		{"at-bound", units.Millisecond, 3 * units.Millisecond},
		{"inside-delay", units.Millisecond, 3*units.Millisecond + 500*units.Nanosecond},
		{"at-detection", units.Millisecond, 3*units.Millisecond + units.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := grayConfig(true)
			cfg.GrayPersistence = tc.persistence
			cfg.Faults = &faults.Plan{
				Seed: 11,
				Events: []faults.Event{
					{At: 2 * units.Millisecond, Link: link, Kind: faults.Derate, Scale: 0.2},
					{At: tc.heal, Link: link, Kind: faults.Derate, Scale: 1.0},
				},
			}
			n, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			before := n.Admission().LinkLimit(link.Switch, link.Port)
			res := n.Run()
			g := res.Gray
			if g == nil {
				t.Fatal("armed detector produced no Gray report")
			}
			if g.Detections != 0 || g.FlowsRerouted != 0 || g.Revalidations != 0 {
				t.Fatalf("transient dip triggered the detector: %v", g)
			}
			if after := n.Admission().LinkLimit(link.Switch, link.Port); after != before {
				t.Fatalf("root CAC limit of %v ends at %v, was %v before the dip", link, after, before)
			}
		})
	}
}

// TestGrayAndSwitchFailureShareOneView runs a gray link and a spine outage
// together, in both orders, and clears neither. Route repair and the gray
// detector must act on one view of the fabric: no registered static flow
// may end on the dead spine 4, and none may cross the gray uplink (0,5)
// while a detour over the healthy spines 6 or 7 exists.
func TestGrayAndSwitchFailureShareOneView(t *testing.T) {
	const deadSpine = 4
	gray := faults.LinkID{Switch: 0, Port: 5}
	outage := func(at units.Time) faults.Event {
		return faults.Event{At: at, Link: faults.SwitchID(deadSpine), Kind: faults.SwitchDown}
	}
	derate := func(at units.Time) faults.Event {
		return faults.Event{At: at, Link: gray, Kind: faults.Derate, Scale: 0.2}
	}
	for _, tc := range []struct {
		name   string
		events []faults.Event
	}{
		{"derate-then-outage", []faults.Event{derate(2 * units.Millisecond), outage(4 * units.Millisecond)}},
		{"outage-then-derate", []faults.Event{outage(2 * units.Millisecond), derate(3 * units.Millisecond)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := grayConfig(true)
			cfg.Faults = &faults.Plan{Seed: 11, Events: tc.events}
			n, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			res := n.Run()
			if err := res.Conservation.Check(); err != nil {
				t.Fatalf("conservation: %v\n%v", err, res.Conservation)
			}
			if g := res.Gray; g == nil || g.Detections != 1 || g.FlowsRerouted == 0 {
				t.Fatalf("gray report %v, want one detection that moved flows", g)
			}
			if av := res.Availability; av == nil || av.FlowsRerouted == 0 {
				t.Fatalf("availability %v, want repaired static flows", av)
			}
			// faultedSpine blocks every link of spines 4 and 5, the only
			// spines the plan touches: a RepairPath under it runs over
			// spine 6 or 7.
			faultedSpine := func(sw, out int) bool {
				peer := n.topo.Peer(sw, out)
				return sw == deadSpine || sw == 5 || (!peer.IsHost && (peer.ID == deadSpine || peer.ID == 5))
			}
			var onDead, onGray int
			for _, rf := range n.repairFlows {
				route := n.hosts[rf.host].Flow(rf.id).Route
				for _, h := range topology.RouteHops(n.topo, rf.src, route) {
					if h.Switch == deadSpine {
						onDead++
					}
					if h.Switch == gray.Switch && h.OutPort == gray.Port &&
						topology.RepairPath(n.topo, rf.src, rf.dst, faultedSpine) != nil {
						onGray++
					}
				}
			}
			if onDead != 0 || onGray != 0 {
				t.Fatalf("of %d static flows, %d end routed through dead spine %d and %d across gray link %v with a detour spare",
					len(n.repairFlows), onDead, deadSpine, onGray, gray)
			}
		})
	}
}
