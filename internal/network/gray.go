package network

// Gray-failure detection and proactive evacuation.
//
// A gray failure is a link that still carries traffic but persistently
// slower than provisioned — a fault-plan Derate that neither clears nor
// hardens into a LinkDown. The availability machinery (repair.go) reacts
// only to topological events, and the CACs merely shrink their ledgers to
// the derated capacity (sessions.go), so regulated flows keep crossing
// the slow drain until their deadline slack is gone and the miss-burst
// SLO trips. The detector closes that gap: a link whose derate scale
// stays at or below Gray.Threshold for Gray.Persistence is declared
// gray, and Gray.DetectLatency later the plane reacts proactively —
// static flows crossing the link are moved to a RepairPath detour around
// every currently-gray link, and each CAC endpoint revalidates its
// sessions against Gray.EvacuateScale of the link's capacity, revoking
// or rerouting what the slow drain cannot carry.
//
// Like route repair, the whole decision process replays the static fault
// plan at build time — a pure function of (topology, plan, GrayConfig) —
// and only the resulting actions are scheduled onto shard engines: the
// detector is byte-identical at any shard count.

import (
	"fmt"
	"sort"

	"deadlineqos/internal/faults"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/units"
)

// GrayConfig parameterises the gray-failure detector (Config.Gray).
type GrayConfig struct {
	// Threshold classifies a derate as gray: a link running at scale <=
	// Threshold of nominal is a slow drain (default 0.6).
	Threshold float64
	// Persistence is how long the derate must persist before the link is
	// declared gray — transient dips heal themselves and must not trigger
	// evacuation (default 500 µs).
	Persistence units.Time
	// DetectLatency models the control-plane lag between the persistence
	// bound being met and the reactions applying (default 1 µs).
	DetectLatency units.Time
	// EvacuateScale is the capacity fraction the CACs revalidate a gray
	// link against: reservations beyond it are revoked or rerouted. Low
	// values evacuate aggressively (default 0.1).
	EvacuateScale float64
}

// validate fills defaults and rejects inconsistent detector settings.
func (g *GrayConfig) validate() error {
	if g.Threshold == 0 {
		g.Threshold = 0.6
	}
	if g.Threshold < 0 || g.Threshold > 1 {
		return fmt.Errorf("gray threshold %v out of (0, 1]", g.Threshold)
	}
	if g.Persistence == 0 {
		g.Persistence = 500 * units.Microsecond
	}
	if g.Persistence < 0 {
		return fmt.Errorf("negative gray persistence %v", g.Persistence)
	}
	if g.DetectLatency == 0 {
		g.DetectLatency = units.Microsecond
	}
	if g.DetectLatency < 0 {
		return fmt.Errorf("negative gray detect latency %v", g.DetectLatency)
	}
	if g.EvacuateScale == 0 {
		g.EvacuateScale = 0.1
	}
	if g.EvacuateScale < 0 || g.EvacuateScale > 1 {
		return fmt.Errorf("gray evacuate scale %v out of (0, 1]", g.EvacuateScale)
	}
	return nil
}

// GrayReport summarises the detector's run (Results.Gray; nil unless
// Config.Gray is set). All counters record actions that executed inside
// the run horizon.
type GrayReport struct {
	// Detections counts gray declarations (one per link episode that
	// outlasted Persistence).
	Detections uint64 `json:"detections"`
	// FlowsRerouted counts static flows proactively moved off gray links.
	FlowsRerouted uint64 `json:"flows_rerouted"`
	// Revalidations counts CAC revalidation sweeps triggered (one per
	// detection per CAC endpoint; zero without sessions).
	Revalidations uint64 `json:"revalidations"`
}

// String renders the gray report for the CLI tools.
func (g *GrayReport) String() string {
	return fmt.Sprintf("gray[detected=%d rerouted=%d revalidations=%d]",
		g.Detections, g.FlowsRerouted, g.Revalidations)
}

// grayShard is one shard's executed detector actions, recorded at event
// time (actions scheduled past the horizon never count) and merged
// order-independently at the end of Run.
type grayShard struct {
	detected uint64
	rerouted uint64
	revals   uint64
}

// grayEpisode is one contiguous below-threshold interval of a link, from
// the build-time replay of the plan's derate events.
type grayEpisode struct {
	link     faults.LinkID
	start    units.Time // first instant at or below threshold
	end      units.Time // first instant back above threshold (horizon if never)
	detectAt units.Time // start + Persistence + DetectLatency
}

// installGray replays the plan's derate timeline at build time and
// schedules every detection's reactions into the shard engines. Runs
// after sessions are provisioned (the CAC endpoints must exist).
func (n *Network) installGray() {
	gcfg := n.cfg.Gray
	if gcfg == nil || n.cfg.Faults.Empty() {
		return
	}
	horizon := n.cfg.WarmUp + n.cfg.Measure
	for _, sh := range n.shards {
		sh.gray = &grayShard{}
	}

	// Per-link derate timelines, in normalized (chronological) order.
	timelines := make(map[faults.LinkID][]faults.Event)
	var links []faults.LinkID
	for _, ev := range n.cfg.Faults.Normalized() {
		if ev.Kind != faults.Derate || ev.At > horizon {
			continue
		}
		if _, seen := timelines[ev.Link]; !seen {
			links = append(links, ev.Link)
		}
		timelines[ev.Link] = append(timelines[ev.Link], ev)
	}

	// Walk each link's timeline into below-threshold episodes, keeping the
	// ones that outlast Persistence with their detection inside the run.
	var episodes []grayEpisode
	for _, id := range links {
		var start units.Time
		gray := false
		for _, ev := range timelines[id] {
			below := ev.Scale <= gcfg.Threshold
			switch {
			case below && !gray:
				gray, start = true, ev.At
			case !below && gray:
				gray = false
				if ev.At-start >= gcfg.Persistence {
					episodes = append(episodes, grayEpisode{
						link: id, start: start, end: ev.At,
						detectAt: start + gcfg.Persistence + gcfg.DetectLatency,
					})
				}
			}
		}
		if gray && horizon-start >= gcfg.Persistence {
			episodes = append(episodes, grayEpisode{
				link: id, start: start, end: horizon,
				detectAt: start + gcfg.Persistence + gcfg.DetectLatency,
			})
		}
	}
	kept := episodes[:0]
	for _, e := range episodes {
		if e.detectAt <= horizon {
			kept = append(kept, e)
		}
	}
	episodes = kept
	if len(episodes) == 0 {
		return
	}
	// Detection order is chronological with a fixed address tie-break, so
	// the shadow-route evolution below is deterministic.
	sort.SliceStable(episodes, func(i, j int) bool {
		a, b := episodes[i], episodes[j]
		if a.detectAt != b.detectAt {
			return a.detectAt < b.detectAt
		}
		if a.link.Switch != b.link.Switch {
			return a.link.Switch < b.link.Switch
		}
		return a.link.Port < b.link.Port
	})

	// Shadow routes track the coordinator's view of every registered
	// static flow, exactly like installRepair's.
	routes := make([][]int, len(n.repairFlows))
	for i, rf := range n.repairFlows {
		routes[i] = n.hosts[rf.host].Flow(rf.id).Route
	}
	crosses := func(rf regFlow, route []int, id faults.LinkID) bool {
		for _, h := range topology.RouteHops(n.topo, rf.src, route) {
			if h.Switch == id.Switch && h.OutPort == id.Port {
				return true
			}
		}
		return false
	}

	// CAC endpoints for revalidation sweeps (empty without sessions).
	type cacSched struct {
		shard int
		cac   cacHooks
	}
	var cacs []cacSched
	if n.sessMgr != nil {
		cacs = append(cacs, cacSched{n.hostShard[n.sessCfg.Manager], n.sessMgr})
		for _, d := range n.sessDelegates {
			cacs = append(cacs, cacSched{n.hostShard[d.HostID()], d})
		}
	}

	for _, e := range episodes {
		// The active gray set at this detection instant: every episode
		// already detected and not yet healed blocks the detour search.
		active := make(map[faults.LinkID]bool)
		for _, o := range episodes {
			if o.detectAt <= e.detectAt && o.end > e.detectAt {
				active[o.link] = true
			}
		}
		blocked := func(sw, out int) bool {
			return active[faults.LinkID{Switch: sw, Port: out}]
		}

		// Detection bookkeeping lives on the gray switch's shard.
		swShard := n.shards[n.swShard[e.link.Switch]]
		swShard.eng.At(e.detectAt, func() {
			swShard.gray.detected++
		})

		// Proactive reroute: move every static flow crossing the freshly
		// gray link onto a detour avoiding all currently-gray links.
		for i, rf := range n.repairFlows {
			if !crosses(rf, routes[i], e.link) {
				continue
			}
			hops := topology.RepairPath(n.topo, rf.src, rf.dst, blocked)
			if hops == nil {
				continue // fully gray fabric: leave the flow where it is
			}
			newRoute := topology.Ports(hops)
			routes[i] = newRoute
			rf := rf
			sh := n.shards[n.hostShard[rf.host]]
			sh.eng.At(e.detectAt, func() {
				n.hosts[rf.host].Flow(rf.id).Route = newRoute
				sh.gray.rerouted++
			})
		}

		// Session revalidation: every CAC endpoint re-sees the link at the
		// evacuation capacity and revokes or reroutes what no longer fits.
		for _, cs := range cacs {
			cs := cs
			link := e.link
			sh := n.shards[cs.shard]
			sh.eng.At(e.detectAt, func() {
				cs.cac.OnLinkDerated(link.Switch, link.Port, gcfg.EvacuateScale)
				sh.gray.revals++
			})
		}
	}
}

// buildGrayReport merges the per-shard detector counters into
// Results.Gray. Nil unless the detector was configured.
func (n *Network) buildGrayReport(res *Results) {
	if n.cfg.Gray == nil {
		return
	}
	rep := &GrayReport{}
	for _, sh := range n.shards {
		if sh.gray == nil {
			continue
		}
		rep.Detections += sh.gray.detected
		rep.FlowsRerouted += sh.gray.rerouted
		rep.Revalidations += sh.gray.revals
	}
	res.Gray = rep
}
