// Package admission implements the centralised connection admission
// control of the paper's architecture (§3): bandwidth reservation happens
// at a single point (the fabric manager, as in PCI AS or InfiniBand) and
// no record is kept in the switches. Admission fixes each flow's route;
// because reservation considers the load already placed on every link, it
// balances flows across the equivalent minimal paths of the MIN — the
// paper's answer to why fixed (not deterministic) routing still spreads
// load.
//
// Best-effort traffic is not reserved but still uses fixed routes (to
// avoid out-of-order delivery); its paths are spread deterministically by
// hashing the flow identity.
package admission

import (
	"fmt"

	"deadlineqos/internal/topology"
	"deadlineqos/internal/units"
)

// linkKey identifies a directed switch output link.
type linkKey struct {
	sw, port int
}

// Controller is the centralised admission control and route assignment
// authority for one network.
type Controller struct {
	topo   topology.Topology
	linkBW units.Bandwidth
	// maxUtil caps reservations per link as a fraction of capacity; the
	// paper's regulated traffic never oversubscribes links ("traffic is
	// regulated (no over-subscription of the links)", §3.2).
	maxUtil float64

	reserved map[linkKey]units.Bandwidth
	hostInj  []units.Bandwidth // reservation on each host's injection link
	// leased and leasedHost record the capacity fraction delegated away to
	// pod CACs: this controller (the root's) must not admit into the
	// leased share of a link or a host injection cable. Absent entries are
	// unleased.
	leased     map[linkKey]float64
	leasedHost []float64
	// capScale derates individual link capacities (degraded links); links
	// absent from the map have full capacity.
	capScale map[linkKey]float64
	// deadSw and deadLink track SwitchDown / PortDown faults: capacity
	// that is gone entirely (a derate scale cannot express zero). Reserve
	// refuses paths through them and falls back to repaired detours.
	deadSw   map[int]bool
	deadLink map[linkKey]bool
	// flows records admitted reservations so they can be released.
	flows  map[FlowHandle]reservation
	nextFH FlowHandle
	// byLink and byHost list the live handles charged to each link and
	// each host injection link, in admission order. They exist so Release
	// can restore the float ledger exactly: instead of subtracting (which
	// does not invert addition in float64), the affected sums are
	// recomputed over the surviving handles in their original order,
	// leaving Reserved/HostReserved byte-identical to a history in which
	// the released flow never existed.
	byLink map[linkKey][]FlowHandle
	byHost [][]FlowHandle

	// Reserve and Release outcomes over the controller's lifetime.
	reserves, rejects, releases uint64
}

// Counts returns how many reservations Reserve granted and refused, and
// how many Release returned, since the controller was built.
func (c *Controller) Counts() (reserves, rejects, releases uint64) {
	return c.reserves, c.rejects, c.releases
}

// FlowHandle identifies an admitted reservation for later release.
type FlowHandle uint64

// reservation remembers what Reserve charged, for Release.
type reservation struct {
	src  int
	bw   units.Bandwidth
	hops []topology.Hop
}

// New returns a Controller for the topology with the given link bandwidth.
// maxUtil in (0,1] caps per-link reservation (1.0 = full link capacity).
func New(topo topology.Topology, linkBW units.Bandwidth, maxUtil float64) (*Controller, error) {
	if maxUtil <= 0 || maxUtil > 1 {
		return nil, fmt.Errorf("admission: maxUtil %v out of (0,1]", maxUtil)
	}
	if linkBW <= 0 {
		return nil, fmt.Errorf("admission: non-positive link bandwidth %v", linkBW)
	}
	return &Controller{
		topo:       topo,
		linkBW:     linkBW,
		maxUtil:    maxUtil,
		reserved:   make(map[linkKey]units.Bandwidth),
		hostInj:    make([]units.Bandwidth, topo.Hosts()),
		leased:     make(map[linkKey]float64),
		leasedHost: make([]float64, topo.Hosts()),
		capScale:   make(map[linkKey]float64),
		deadSw:     make(map[int]bool),
		deadLink:   make(map[linkKey]bool),
		flows:      make(map[FlowHandle]reservation),
		byLink:     make(map[linkKey][]FlowHandle),
		byHost:     make([][]FlowHandle, topo.Hosts()),
	}, nil
}

// DerateLink tells the controller that switch sw's output port carries
// only scale (0..1] of the nominal link bandwidth — a degraded cable, an
// oversubscribed uplink, or an operator-imposed cap. Subsequent
// reservations route around it when they can. It panics on scale outside
// (0, 1], a configuration bug.
func (c *Controller) DerateLink(sw, port int, scale float64) {
	if scale <= 0 || scale > 1 {
		panic(fmt.Sprintf("admission: derate scale %v out of (0,1]", scale))
	}
	c.capScale[linkKey{sw, port}] = scale
}

// SetSwitchDown records a SwitchDown (or its SwitchUp recovery) in the
// ledger's view of the fabric. While down, no reservation may route
// through the switch. The session Manager calls this before revoking the
// stranded sessions.
func (c *Controller) SetSwitchDown(sw int, down bool) {
	if down {
		c.deadSw[sw] = true
	} else {
		delete(c.deadSw, sw)
	}
}

// SetPortDown records a PortDown (or PortUp) cable cut. Both directions
// of the cable die: the addressed output link and, when the peer is a
// switch, the peer's link back.
func (c *Controller) SetPortDown(sw, port int, down bool) {
	set := func(k linkKey) {
		if down {
			c.deadLink[k] = true
		} else {
			delete(c.deadLink, k)
		}
	}
	set(linkKey{sw, port})
	if peer := c.topo.Peer(sw, port); !peer.IsHost && peer.ID >= 0 {
		set(linkKey{peer.ID, peer.Port})
	}
}

// linkDead reports whether the directed link (sw, out) is unusable: it or
// its cable is cut, or either endpoint switch is dead.
func (c *Controller) linkDead(sw, out int) bool {
	if c.deadSw[sw] || c.deadLink[linkKey{sw, out}] {
		return true
	}
	peer := c.topo.Peer(sw, out)
	return !peer.IsHost && peer.ID >= 0 && c.deadSw[peer.ID]
}

// injDead reports whether host h's injection cable is unusable: its leaf
// switch is dead, or the cable was cut (the switch-side ejection
// direction marks the whole cable).
func (c *Controller) injDead(h int) bool {
	sw, port := c.topo.HostPort(h)
	return c.deadSw[sw] || c.deadLink[linkKey{sw, port}]
}

// limitFor returns the reservable bandwidth of one link: the utilisation
// cap scaled by any derate, minus the share leased away to a pod CAC.
func (c *Controller) limitFor(k linkKey) units.Bandwidth {
	limit := units.Bandwidth(c.maxUtil) * c.linkBW
	if s, ok := c.capScale[k]; ok {
		limit = units.Bandwidth(float64(limit) * s)
	}
	if f, ok := c.leased[k]; ok {
		limit = units.Bandwidth(float64(limit) * (1 - f))
	}
	return limit
}

// ports converts a hop path into the packet-header route (output port per
// switch hop).
func ports(hops []topology.Hop) []int {
	route := make([]int, len(hops))
	for i, h := range hops {
		route[i] = h.OutPort
	}
	return route
}

// Reserve admits a flow of average bandwidth bw from src to dst, choosing
// the minimal path whose most-utilised link is least utilised (greedy load
// balancing, fractional against each link's possibly derated capacity).
// It returns the fixed route and a handle for Release, or an error when
// every path would oversubscribe some link.
func (c *Controller) Reserve(src, dst int, bw units.Bandwidth) ([]int, FlowHandle, error) {
	if src == dst {
		c.rejects++
		return nil, 0, fmt.Errorf("admission: flow to self (host %d)", src)
	}
	if bw <= 0 {
		c.rejects++
		return nil, 0, fmt.Errorf("admission: non-positive bandwidth %v", bw)
	}
	if c.injDead(src) || c.injDead(dst) {
		c.rejects++
		return nil, 0, fmt.Errorf("admission: host %d or %d is unreachable (dead attachment)", src, dst)
	}
	injLimit := units.Bandwidth(c.maxUtil * (1 - c.leasedHost[src]) * float64(c.linkBW))
	if c.hostInj[src]+bw > injLimit {
		c.rejects++
		return nil, 0, fmt.Errorf("admission: host %d injection link full (%v reserved, %v requested, %v limit)",
			src, c.hostInj[src], bw, injLimit)
	}
	n := c.topo.PathCount(src, dst)
	bestChoice := -1
	bestWorst := 0.0
	for choice := 0; choice < n; choice++ {
		hops := c.topo.Path(src, dst, choice)
		worst := 0.0
		ok := true
		for _, h := range hops {
			if c.linkDead(h.Switch, h.OutPort) {
				ok = false
				break
			}
			k := linkKey{h.Switch, h.OutPort}
			limit := c.limitFor(k)
			r := c.reserved[k]
			if r+bw > limit {
				ok = false
				break
			}
			if frac := float64(r+bw) / float64(limit); frac > worst {
				worst = frac
			}
		}
		if !ok {
			continue
		}
		if bestChoice == -1 || worst < bestWorst {
			bestChoice, bestWorst = choice, worst
		}
	}
	var hops []topology.Hop
	if bestChoice >= 0 {
		hops = c.topo.Path(src, dst, bestChoice)
	} else if hops = c.repairCandidate(src, dst, bw); hops == nil {
		c.rejects++
		return nil, 0, fmt.Errorf("admission: no path from %d to %d can carry %v more", src, dst, bw)
	}
	c.nextFH++
	for _, h := range hops {
		k := linkKey{h.Switch, h.OutPort}
		c.reserved[k] += bw
		c.byLink[k] = append(c.byLink[k], c.nextFH)
	}
	c.hostInj[src] += bw
	c.byHost[src] = append(c.byHost[src], c.nextFH)
	c.flows[c.nextFH] = reservation{src: src, bw: bw, hops: hops}
	c.reserves++
	return ports(hops), c.nextFH, nil
}

// repairCandidate computes a non-minimal detour around dead fabric when
// every minimal path was refused. It only engages while something is
// actually dead (a healthy refusal stays a capacity error), and the
// detour must still fit capacity-wise on every surviving hop — repaired
// reservations are charged like any other.
func (c *Controller) repairCandidate(src, dst int, bw units.Bandwidth) []topology.Hop {
	if len(c.deadSw) == 0 && len(c.deadLink) == 0 {
		return nil
	}
	hops := topology.RepairPath(c.topo, src, dst, c.linkDead)
	if hops == nil {
		return nil
	}
	for _, h := range hops {
		k := linkKey{h.Switch, h.OutPort}
		if c.reserved[k]+bw > c.limitFor(k) {
			return nil
		}
	}
	return hops
}

// RouteDead reports whether a port-list route from host src crosses dead
// fabric (a dead switch, a severed cable, or a dead src attachment). The
// session Manager uses it to find the sessions a switch failure stranded.
func (c *Controller) RouteDead(src int, route []int) bool {
	if len(c.deadSw) == 0 && len(c.deadLink) == 0 {
		return false
	}
	if c.injDead(src) {
		return true
	}
	for _, h := range topology.RouteHops(c.topo, src, route) {
		if c.linkDead(h.Switch, h.OutPort) {
			return true
		}
	}
	return false
}

// RepairRoute returns a detour route from src to dst that avoids every
// dead switch and severed cable, without charging the ledger (used for
// best-effort flows, which never reserve), or nil when the pair is
// partitioned.
func (c *Controller) RepairRoute(src, dst int) []int {
	hops := topology.RepairPath(c.topo, src, dst, c.linkDead)
	if hops == nil {
		return nil
	}
	return ports(hops)
}

// dropHandle removes h from an admission-order handle list, preserving
// the order of the survivors.
func dropHandle(s []FlowHandle, h FlowHandle) []FlowHandle {
	for i, v := range s {
		if v == h {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// recomputeLink resets one link's reserved bandwidth to the
// admission-order sum over its surviving handles, the canonical value the
// incremental additions in Reserve would have produced had the released
// flows never been admitted.
func (c *Controller) recomputeLink(k linkKey) {
	hs := c.byLink[k]
	if len(hs) == 0 {
		delete(c.byLink, k)
		delete(c.reserved, k)
		return
	}
	var sum units.Bandwidth
	for _, h := range hs {
		sum += c.flows[h].bw
	}
	c.reserved[k] = sum
}

// Release returns a flow's reserved bandwidth to the network (connection
// teardown). Releasing a handle that was never issued, or releasing the
// same handle twice, is a hard error (panic): under dynamic churn a
// double release silently under-counts reservations and lets the
// controller oversubscribe links, so the bug must not limp on.
func (c *Controller) Release(h FlowHandle) {
	r, ok := c.flows[h]
	if !ok {
		if h == 0 || h > c.nextFH {
			panic(fmt.Sprintf("admission: release of never-issued flow handle %d", h))
		}
		panic(fmt.Sprintf("admission: double release of flow handle %d", h))
	}
	delete(c.flows, h)
	c.releases++
	for _, hop := range r.hops {
		k := linkKey{hop.Switch, hop.OutPort}
		c.byLink[k] = dropHandle(c.byLink[k], h)
		c.recomputeLink(k)
	}
	c.byHost[r.src] = dropHandle(c.byHost[r.src], h)
	var sum units.Bandwidth
	for _, fh := range c.byHost[r.src] {
		sum += c.flows[fh].bw
	}
	c.hostInj[r.src] = sum
}

// ActiveFlows returns the number of admitted, unreleased reservations.
func (c *Controller) ActiveFlows() int { return len(c.flows) }

// RouteBestEffort assigns a fixed route without reservation, spreading
// flows across the minimal paths by hashing key (typically the flow id).
func (c *Controller) RouteBestEffort(src, dst int, key uint64) []int {
	n := c.topo.PathCount(src, dst)
	// SplitMix-style scramble so consecutive keys spread well.
	k := key
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	choice := int(k % uint64(n))
	return ports(c.topo.Path(src, dst, choice))
}

// Reserved returns the bandwidth reserved on switch sw's output port.
func (c *Controller) Reserved(sw, port int) units.Bandwidth {
	return c.reserved[linkKey{sw, port}]
}

// HostReserved returns the bandwidth reserved on host h's injection link.
func (c *Controller) HostReserved(h int) units.Bandwidth { return c.hostInj[h] }

// HandlesOn returns the handles of every live reservation crossing switch
// sw's output port, in admission order (ascending handle). The slice is a
// copy; the caller may keep it. The session manager uses it to pick
// revocation victims when a link is derated below its reserved load.
func (c *Controller) HandlesOn(sw, port int) []FlowHandle {
	hs := c.byLink[linkKey{sw, port}]
	out := make([]FlowHandle, len(hs))
	copy(out, hs)
	return out
}

// LinkLimit returns the reservable bandwidth of switch sw's output port
// under the current derating (maxUtil x linkBW x derate scale).
func (c *Controller) LinkLimit(sw, port int) units.Bandwidth {
	return c.limitFor(linkKey{sw, port})
}

// AuditLedger verifies the ledger's internal consistency: every link's
// reserved bandwidth must equal the admission-order sum over its live
// handles (float-exact by construction — Release recomputes exactly this
// sum), every host's injection reservation likewise, every listed handle
// must exist, and no reservation may exceed its link's current limit
// unless the overload is an acknowledged fault remnant awaiting
// revocation. The soak harness runs it after every epoch as the
// ledger-balance invariant.
func (c *Controller) AuditLedger() error {
	for k, hs := range c.byLink {
		var sum units.Bandwidth
		for _, h := range hs {
			r, ok := c.flows[h]
			if !ok {
				return fmt.Errorf("admission: link %v:%v lists dead handle %d", k.sw, k.port, h)
			}
			sum += r.bw
		}
		if c.reserved[k] != sum {
			return fmt.Errorf("admission: link sw%d:p%d reserved %v != handle sum %v",
				k.sw, k.port, c.reserved[k], sum)
		}
	}
	for k := range c.reserved {
		if len(c.byLink[k]) == 0 {
			return fmt.Errorf("admission: link sw%d:p%d reserves %v with no handles",
				k.sw, k.port, c.reserved[k])
		}
	}
	for host, hs := range c.byHost {
		var sum units.Bandwidth
		for _, h := range hs {
			r, ok := c.flows[h]
			if !ok {
				return fmt.Errorf("admission: host %d lists dead handle %d", host, h)
			}
			sum += r.bw
		}
		if c.hostInj[host] != sum {
			return fmt.Errorf("admission: host %d reserved %v != handle sum %v",
				host, c.hostInj[host], sum)
		}
	}
	return nil
}

// SetMaxUtil resizes the controller's reservable fraction of every link.
// A pod delegate's lease ledger is a Controller whose maxUtil IS its lease
// fraction; lease grants and returns resize it here. Existing
// reservations are untouched (AuditLedger checks balance, not limits), so
// shrinking below the current load simply blocks new admissions until
// teardowns drain the excess.
func (c *Controller) SetMaxUtil(f float64) {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("admission: max utilisation %v out of (0,1]", f))
	}
	c.maxUtil = f
}

// MaxUtil returns the current reservable fraction.
func (c *Controller) MaxUtil() float64 { return c.maxUtil }

// SetPodLease records frac of each listed host's attachment capacity —
// the injection cable and the leaf switch's ejection link — as leased out
// to a pod CAC. frac 0 reclaims the lease. The root controller stops
// admitting into the leased share; the delegate's own controller covers
// exactly that share via SetMaxUtil, so the two ledgers partition the
// pod's capacity without double-booking.
func (c *Controller) SetPodLease(hosts []int, frac float64) {
	if frac < 0 || frac >= 1 {
		panic(fmt.Sprintf("admission: lease fraction %v out of [0,1)", frac))
	}
	for _, h := range hosts {
		sw, port := c.topo.HostPort(h)
		k := linkKey{sw, port}
		if frac == 0 {
			delete(c.leased, k)
		} else {
			c.leased[k] = frac
		}
		c.leasedHost[h] = frac
	}
}

// CanPodLease reports whether raising the listed hosts' lease to frac
// would still cover the bandwidth this controller has already reserved on
// their attachment links — the root's check before granting a lease
// growth request.
func (c *Controller) CanPodLease(hosts []int, frac float64) bool {
	for _, h := range hosts {
		sw, port := c.topo.HostPort(h)
		k := linkKey{sw, port}
		limit := float64(c.maxUtil) * float64(c.linkBW)
		if s, ok := c.capScale[k]; ok {
			limit *= s
		}
		if float64(c.reserved[k]) > limit*(1-frac) {
			return false
		}
		if float64(c.hostInj[h]) > float64(c.maxUtil)*float64(c.linkBW)*(1-frac) {
			return false
		}
	}
	return true
}

// Restore charges an existing reservation into the ledger along its
// already-fixed route, bypassing admission checks: lease reconciliation
// after a delegate failover must account every session the failed primary
// granted, even when it no longer fits the successor's lease (the excess
// drains through teardowns; AuditLedger checks balance, not limits).
func (c *Controller) Restore(src int, route []int, bw units.Bandwidth) FlowHandle {
	if bw <= 0 {
		panic(fmt.Sprintf("admission: restore of non-positive bandwidth %v", bw))
	}
	hops := topology.RouteHops(c.topo, src, route)
	c.nextFH++
	for _, h := range hops {
		k := linkKey{h.Switch, h.OutPort}
		c.reserved[k] += bw
		c.byLink[k] = append(c.byLink[k], c.nextFH)
	}
	c.hostInj[src] += bw
	c.byHost[src] = append(c.byHost[src], c.nextFH)
	c.flows[c.nextFH] = reservation{src: src, bw: bw, hops: hops}
	return c.nextFH
}

// HostDead reports whether host h's fabric attachment is currently dead
// (leaf switch down or injection cable cut) — how the root decides a
// delegate CAC was taken out.
func (c *Controller) HostDead(h int) bool { return c.injDead(h) }

// UtilOfLimit returns the worst reserved-to-limit fraction across links
// carrying reservations — a delegate controller's lease utilisation. A
// value above 1 marks a fault remnant (or post-failover excess) awaiting
// drain.
func (c *Controller) UtilOfLimit() float64 {
	worst := 0.0
	for k, r := range c.reserved {
		if l := c.limitFor(k); l > 0 {
			if f := float64(r) / float64(l); f > worst {
				worst = f
			}
		}
	}
	return worst
}

// MaxLinkUtilisation returns the highest reserved fraction across all
// switch links (diagnostics for experiment configurations).
func (c *Controller) MaxLinkUtilisation() float64 {
	var worst units.Bandwidth
	for _, r := range c.reserved {
		if r > worst {
			worst = r
		}
	}
	return float64(worst) / float64(c.linkBW)
}
