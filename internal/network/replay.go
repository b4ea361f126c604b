package network

// The fabric manager's reactions to the fault plan, decided by one
// build-time replay.
//
// The paper's admission control fixes a source route per flow (§3), and
// its FIFO-head EDF emulation assumes regulated traffic never
// over-subscribes a link. So when the plan kills a switch, cuts a cable
// or slows a link for good, the manager must keep the statically
// provisioned flows off it and tell every CAC endpoint. replayFaults walks
// the normalized plan once, in time order, keeping one view of the fabric
// (dead switches, cut cables, gray links and the shadow route of every
// registered static flow), and decides from that view:
//
//   - CAC notices: every CAC endpoint hears every derate and every switch
//     and port event, and revokes or repairs what the change strands (the
//     dynamic sessions are repaired in-band, see internal/session);
//   - route repair: a static flow whose route crosses dead fabric moves to
//     a detour (topology.RepairPath) around dead and gray links, or around
//     dead ones only when just gray paths survive. A pair the surviving
//     fabric cannot connect degrades gracefully: the source keeps
//     transmitting, the dead links account every packet, and the flow is
//     reported unreachable;
//   - gray detection: a derate to grayThreshold of nominal or below that
//     still holds Config.GrayPersistence plus mgmtDelay after it began
//     marks its link gray. Static flows crossing it move to a detour around
//     every dead and gray link, and each CAC endpoint revalidates its
//     sessions against grayEvacuate of the link's capacity.
//
// CAC notices and route swaps apply mgmtDelay after their fault, gray
// reactions at the detection instant. Only the resulting actions are
// scheduled on the shard engines, so they, and every counter they feed,
// are a pure function of (topology, plan): byte-identical at any shard
// count.

import (
	"sort"

	"deadlineqos/internal/faults"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/stats"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/units"
)

const (
	// mgmtDelay is the fabric manager's latency from a fault (or from a
	// derate meeting the persistence bound) to its reactions.
	mgmtDelay = units.Microsecond
	// grayThreshold classifies a derate as gray: a link at or below this
	// fraction of nominal is a slow drain.
	grayThreshold = 0.6
	// grayEvacuate is the capacity fraction the CACs revalidate a gray
	// link against: reservations beyond it are revoked or rerouted.
	grayEvacuate = 0.1
)

// cacEndpoint is what the network drives and reads of a CAC endpoint,
// the root Manager or a pod Delegate: the fault notices, delivered on the
// endpoint's own shard so its ledger tracks the fabric, and the setup
// decisions it counts.
type cacEndpoint interface {
	OnLinkDerated(sw, port int, scale float64)
	OnSwitchDown(sw int, downAt units.Time)
	OnSwitchUp(sw int)
	OnPortDown(sw, port int, downAt units.Time)
	OnPortUp(sw, port int)
	AcceptedCount() uint64
	RejectedCount() uint64
	RevokedCount() uint64
	ShedCount() uint64
}

// shardCAC is one CAC endpoint and the shard its events run on.
type shardCAC struct {
	shard int
	cac   cacEndpoint
}

// regFlow is one statically provisioned flow registered with the replay.
type regFlow struct {
	host     int // owning (source) host
	id       packet.FlowID
	src, dst int
}

// registerRepairFlow records a provisioned flow for route repair and the
// gray-failure detector. No-op unless the replay can move flows.
func (n *Network) registerRepairFlow(host int, id packet.FlowID, src, dst int) {
	if !n.trackFlows {
		return
	}
	n.repairFlows = append(n.repairFlows, regFlow{host: host, id: id, src: src, dst: dst})
}

// reaction is one management action, due at at on the engine of shard.
type reaction struct {
	shard int
	at    units.Time
	fn    func()
}

// reactions are the replay's decisions, each list in scheduling order.
// Same-instant actions on one engine fire in the order they are
// scheduled, and a CAC reply reads its signalling flow's route, so New
// schedules the CAC notices first, then the route repairs, then the gray
// reactions.
type reactions struct{ cac, repair, gray []reaction }

// schedule posts each reaction on its shard's engine, in order.
func (n *Network) schedule(rs []reaction) {
	for _, r := range rs {
		n.shards[r.shard].eng.At(r.at, r.fn)
	}
}

// fabricView is the replay's picture of the fabric at the instant it has
// reached.
type fabricView struct {
	topo   topology.Topology
	deadSw map[int]units.Time     // dead switches, with the instant each died
	cut    map[faults.LinkID]bool // both directions of every cut cable
	gray   map[faults.LinkID]bool
	// routes holds each registered flow's route as it will be once its
	// pending swap applies; broken marks the flows no live route serves
	// since brokenAt.
	routes   [][]int
	broken   []bool
	brokenAt []units.Time
}

// dead reports whether output port out of switch sw leads into dead
// fabric: a dead switch blocks all its links, a cut cable both its
// directions.
func (v *fabricView) dead(sw, out int) bool {
	if _, down := v.deadSw[sw]; down || v.cut[faults.LinkID{Switch: sw, Port: out}] {
		return true
	}
	peer := v.topo.Peer(sw, out)
	if peer.IsHost || peer.ID < 0 {
		return false
	}
	_, down := v.deadSw[peer.ID]
	return down
}

// deadOrGray reports whether output port out of switch sw is dead or gray.
func (v *fabricView) deadOrGray(sw, out int) bool {
	return v.gray[faults.LinkID{Switch: sw, Port: out}] || v.dead(sw, out)
}

// routeDead reports whether rf's route (or its injection cable) crosses
// dead fabric.
func (v *fabricView) routeDead(rf regFlow, route []int) bool {
	if sw, port := v.topo.HostPort(rf.src); v.dead(sw, port) {
		return true // injection cable cut or source leaf dead
	}
	for _, h := range topology.RouteHops(v.topo, rf.src, route) {
		if v.dead(h.Switch, h.OutPort) {
			return true
		}
	}
	return false
}

// crosses reports whether route from rf's source leaves a switch through
// link id.
func (v *fabricView) crosses(rf regFlow, route []int, id faults.LinkID) bool {
	for _, h := range topology.RouteHops(v.topo, rf.src, route) {
		if h.Switch == id.Switch && h.OutPort == id.Port {
			return true
		}
	}
	return false
}

// apply updates the dead sets with one switch or port event. A cut host
// cable has no reverse LinkID; dead covers both its directions through
// the forward entry.
func (v *fabricView) apply(ev faults.Event) {
	switch ev.Kind {
	case faults.SwitchDown:
		v.deadSw[ev.Link.Switch] = ev.At
	case faults.SwitchUp:
		delete(v.deadSw, ev.Link.Switch)
	case faults.PortDown, faults.PortUp:
		down := ev.Kind == faults.PortDown
		v.cut[ev.Link] = down
		if peer := v.topo.Peer(ev.Link.Switch, ev.Link.Port); !peer.IsHost && peer.ID >= 0 {
			v.cut[faults.LinkID{Switch: peer.ID, Port: peer.Port}] = down
		}
	}
}

// grayEpisode is one below-threshold run of a link that the detector
// declares gray at detectAt.
type grayEpisode struct {
	link     faults.LinkID
	detectAt units.Time
}

// grayEpisodes walks each link's derates inside the horizon into
// below-threshold runs and returns those still running at their
// detection instant (start + persistence + mgmtDelay, inside the
// horizon), ordered by that instant with a (switch, port) tie-break.
func grayEpisodes(evs []faults.Event, horizon, persistence units.Time) []grayEpisode {
	var eps []grayEpisode
	since := make(map[faults.LinkID]units.Time) // start of each link's running episode
	for _, ev := range evs {
		if ev.Kind != faults.Derate || ev.At > horizon {
			continue
		}
		start, below := since[ev.Link]
		switch {
		case ev.Scale <= grayThreshold && !below:
			since[ev.Link] = ev.At
		case ev.Scale > grayThreshold && below:
			delete(since, ev.Link)
			if at := start + persistence + mgmtDelay; ev.At > at {
				eps = append(eps, grayEpisode{ev.Link, at})
			}
		}
	}
	for id, start := range since {
		if at := start + persistence + mgmtDelay; at <= horizon {
			eps = append(eps, grayEpisode{id, at})
		}
	}
	sort.Slice(eps, func(i, j int) bool {
		a, b := eps[i], eps[j]
		if a.detectAt != b.detectAt {
			return a.detectAt < b.detectAt
		}
		if a.link.Switch != b.link.Switch {
			return a.link.Switch < b.link.Switch
		}
		return a.link.Port < b.link.Port
	})
	return eps
}

// notice returns the CAC call for a derate or a switch or port event, nil
// for every other kind.
func notice(c cacEndpoint, ev faults.Event) func() {
	sw, port := ev.Link.Switch, ev.Link.Port
	switch ev.Kind {
	case faults.Derate:
		return func() { c.OnLinkDerated(sw, port, ev.Scale) }
	case faults.SwitchDown:
		return func() { c.OnSwitchDown(sw, ev.At) }
	case faults.SwitchUp:
		return func() { c.OnSwitchUp(sw) }
	case faults.PortDown:
		return func() { c.OnPortDown(sw, port, ev.At) }
	case faults.PortUp:
		return func() { c.OnPortUp(sw, port) }
	}
	return nil
}

// replayFaults replays the normalized plan once and returns every
// reaction it decides. It runs after the static flows and the CAC
// endpoints exist, and arms the per-shard availability and detector
// counters the reactions feed.
func (n *Network) replayFaults() reactions {
	var r reactions
	horizon := n.cfg.WarmUp + n.cfg.Measure
	var av *Availability
	if n.cfg.Faults.HasTopological() {
		av = &Availability{}
		n.avail = av
		for _, sh := range n.shards {
			sh.avail = &availShard{ttr: stats.NewHistogram()}
		}
	}
	var episodes []grayEpisode
	if n.cfg.GrayPersistence > 0 && !n.cfg.Faults.Empty() {
		for _, sh := range n.shards {
			sh.gray = &grayShard{}
		}
		episodes = grayEpisodes(n.events, horizon, n.cfg.GrayPersistence)
	}

	v := &fabricView{
		topo:     n.topo,
		deadSw:   make(map[int]units.Time),
		cut:      make(map[faults.LinkID]bool),
		gray:     make(map[faults.LinkID]bool),
		routes:   make([][]int, len(n.repairFlows)),
		broken:   make([]bool, len(n.repairFlows)),
		brokenAt: make([]units.Time, len(n.repairFlows)),
	}
	for i, rf := range n.repairFlows {
		v.routes[i] = n.hosts[rf.host].Flow(rf.id).Route
	}
	next := 0 // first episode not yet detected
	for _, ev := range n.events {
		// Each detection sees the fabric as of its own instant.
		for next < len(episodes) && episodes[next].detectAt < ev.At {
			next = n.detectGray(&r, v, episodes, next)
		}
		for _, c := range n.cacs {
			if fn := notice(c.cac, ev); fn != nil {
				r.cac = append(r.cac, reaction{c.shard, ev.At + mgmtDelay, fn})
			}
		}
		if ev.At > horizon {
			continue // events past the horizon never execute
		}
		switch {
		case ev.Kind == faults.Derate && ev.Scale > grayThreshold:
			delete(v.gray, ev.Link) // the link healed
		case ev.Kind.Topological():
			av.record(ev, v.deadSw)
			v.apply(ev)
			n.repairRoutes(&r, v, ev.At)
		}
	}
	for next < len(episodes) {
		next = n.detectGray(&r, v, episodes, next)
	}
	// Switches still dead at the horizon accrue downtime to the end of the
	// run (integer sum: map iteration order does not matter).
	for _, since := range v.deadSw {
		av.Downtime += horizon - since
	}
	return r
}

// repairRoutes sweeps the registered flows, in registration order, after
// the switch or port event at t changed the dead sets: a flow whose route
// now crosses dead fabric gets a detour, or is reported unreachable; a
// blackholed flow whose route the event revived counts as restored.
func (n *Network) repairRoutes(r *reactions, v *fabricView, t units.Time) {
	at := t + mgmtDelay
	for i, rf := range n.repairFlows {
		shard := n.hostShard[rf.host]
		a := n.shards[shard].avail
		if !v.routeDead(rf, v.routes[i]) {
			if v.broken[i] {
				// The fault's clearing revived the existing route: no
				// management action, the blackhole just ended.
				v.broken[i] = false
				ttr := t - v.brokenAt[i]
				r.repair = append(r.repair, reaction{shard, t, func() {
					a.restored++
					a.ttr.Add(ttr)
				}})
			}
			continue
		}
		hops := topology.RepairPath(v.topo, rf.src, rf.dst, v.deadOrGray)
		if hops == nil && len(v.gray) > 0 {
			hops = topology.RepairPath(v.topo, rf.src, rf.dst, v.dead)
		}
		if hops == nil {
			if !v.broken[i] {
				v.broken[i], v.brokenAt[i] = true, t
				r.repair = append(r.repair, reaction{shard, at, func() { a.unreachable++ }})
			}
			continue
		}
		route := topology.Ports(hops)
		v.routes[i] = route
		restored, ttr := v.broken[i], at-t
		if restored {
			v.broken[i] = false
			ttr = at - v.brokenAt[i]
		}
		host, id := n.hosts[rf.host], rf.id
		r.repair = append(r.repair, reaction{shard, at, func() {
			host.Flow(id).Route = route
			if restored {
				a.restored++
			} else {
				a.rerouted++
			}
			a.ttr.Add(ttr)
		}})
	}
}

// detectGray declares gray every episode due at the instant of
// eps[first], all at once so that each detour avoids all of them, then
// decides their reactions in (switch, port) order: the detection count,
// a detour for every static flow crossing the link, and one revalidation
// per CAC endpoint. It returns the index of the next instant's first
// episode.
func (n *Network) detectGray(r *reactions, v *fabricView, eps []grayEpisode, first int) int {
	at := eps[first].detectAt
	end := first
	for ; end < len(eps) && eps[end].detectAt == at; end++ {
		v.gray[eps[end].link] = true
	}
	for _, e := range eps[first:end] {
		link := e.link
		swShard := n.swShard[link.Switch]
		g := n.shards[swShard].gray
		r.gray = append(r.gray, reaction{swShard, at, func() { g.detected++ }})
		for i, rf := range n.repairFlows {
			if !v.crosses(rf, v.routes[i], link) {
				continue
			}
			hops := topology.RepairPath(v.topo, rf.src, rf.dst, v.deadOrGray)
			if hops == nil {
				continue // no detour around the gray fabric: leave the flow
			}
			route := topology.Ports(hops)
			v.routes[i] = route
			shard := n.hostShard[rf.host]
			g, host, id := n.shards[shard].gray, n.hosts[rf.host], rf.id
			r.gray = append(r.gray, reaction{shard, at, func() {
				host.Flow(id).Route = route
				g.rerouted++
			}})
		}
		for _, c := range n.cacs {
			cac, g := c.cac, n.shards[c.shard].gray
			r.gray = append(r.gray, reaction{c.shard, at, func() {
				cac.OnLinkDerated(link.Switch, link.Port, grayEvacuate)
				g.revals++
			}})
		}
	}
	return end
}
