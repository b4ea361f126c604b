package session

import (
	"fmt"
	"sort"

	"deadlineqos/internal/admission"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/units"
)

// ctlQueue models a CAC host's bounded control queue: each setup costs
// service time to process, and arrivals beyond cap are shed instead of
// queueing without bound. All state lives on the owning CAC's shard, so
// the queue's decisions are identical at any shard count.
type ctlQueue struct {
	eng       *sim.Engine
	service   units.Time
	cap       int
	depth     int
	busyUntil units.Time
}

// newCtlQueue returns a queue for the config, or nil when the model is
// disabled (CtlService 0): a nil queue serves everything at delivery.
func newCtlQueue(eng *sim.Engine, cfg *Config) *ctlQueue {
	if cfg.CtlService <= 0 {
		return nil
	}
	return &ctlQueue{eng: eng, service: cfg.CtlService, cap: cfg.CtlQueueCap}
}

// enqueue runs fn after the queued service delay. When the queue is full
// it reports shed, with the drain-time hint the reject should carry
// (bounded by (cap+1) x service, which the liveness bound relies on).
func (q *ctlQueue) enqueue(fn func()) (hint units.Time, ok bool) {
	now := q.eng.Now()
	if q.busyUntil < now {
		q.busyUntil = now
	}
	if q.depth >= q.cap {
		return q.busyUntil + q.service - now, false
	}
	q.depth++
	q.busyUntil += q.service
	q.eng.At(q.busyUntil, func() {
		q.depth--
		fn()
	})
	return 0, true
}

// Depth returns the current queue occupancy (telemetry); nil-safe.
func (q *ctlQueue) Depth() int {
	if q == nil {
		return 0
	}
	return q.depth
}

// dSession is a delegate's record of one locally granted session.
type dSession struct {
	src, dst int
	bw       units.Bandwidth
	class    packet.Class
	route    []int
	handle   admission.FlowHandle
	reserved bool
}

// dReplica is a standby's copy of one session the pod primary granted,
// maintained through OpSyncGrant/OpSyncRelease. At promotion the replica
// set reconciles the successor's lease ledger.
type dReplica struct {
	src, dst int
	bw       units.Bandwidth
	class    packet.Class
	route    []int
	reserved bool
}

// DelegateConfig wires one pod delegate CAC into its host's shard.
type DelegateConfig struct {
	Host *hostif.Host
	Eng  *sim.Engine // the engine of the shard owning Host
	Cfg  Config      // defaulted and validated
	Cnt  *Counters   // the owning shard's counter instance
	Pod  Pod
	// Standby marks the pod's standby instance: passive (replica
	// maintenance and escalation only) until the root promotes it.
	Standby bool
	Topo    topology.Topology
	LinkBW  units.Bandwidth
	RouteBE func(src, dst int, key uint64) []int
	// WarmUp and Horizon bound the reserved-bandwidth integral window.
	WarmUp, Horizon units.Time
}

// Delegate is a per-pod CAC endpoint. The primary holds a revocable
// capacity lease over the pod's host links — its own admission.Controller
// whose maxUtil IS the lease fraction — and admits intra-pod setups one
// hop away, escalating everything else to the root. The standby mirrors
// the primary's grants and takes over the lease when the root promotes it
// after a fault kills the primary's attachment. All delegate work happens
// in events on the owning host's engine.
type Delegate struct {
	c      DelegateConfig
	adm    *admission.Controller // pod-local lease ledger
	host   int
	syncTo int // standby host mirrored by this primary, -1 = none

	active      bool
	frac        float64 // current lease fraction (0 until granted)
	leaseWanted bool    // an OpLeaseRequest is outstanding

	// Root-failure detector (DESIGN.md §12): the lease-renewal heartbeat
	// doubles as a liveness probe. When renewal acks stop, the delegate
	// opens its escalation breaker (rootDark) and answers inter-pod
	// setups with a local reject instead of injecting them towards a
	// dead root — sustained traffic to a dead host tree-saturates the
	// Control VC and would starve pod-local admission too.
	renewArmed bool       // heartbeat self-scheduling started
	lastAck    units.Time // last time the root was heard from
	rootDark   bool       // escalation breaker open

	sessions map[uint64]*dSession
	byHandle map[admission.FlowHandle]uint64
	rep      map[uint64]*dReplica

	queue *ctlQueue
	// loop delivers a message to the co-located client without touching
	// the fabric (set by Dispatch; a CAC host is its own one-hop target).
	loop func(*Msg)

	// Per-entity cumulative counters for the telemetry probe rows (the
	// shard Counters mix all entities of a shard together, which would
	// vary with the shard layout).
	localGrants uint64
	revoked     uint64
	shed        uint64

	// Reserved-bandwidth integral, same single-writer scheme as the
	// Manager's; BuildResults sums the entities in pod order.
	cur       float64
	lastT     units.Time
	integral  float64
	finalized bool
}

// NewDelegate returns the delegate endpoint for dc.Host.
func NewDelegate(dc DelegateConfig) (*Delegate, error) {
	adm, err := admission.New(dc.Topo, dc.LinkBW, dc.Cfg.LeaseFrac)
	if err != nil {
		return nil, fmt.Errorf("session: delegate ledger: %w", err)
	}
	host := dc.Host.ID()
	syncTo := -1
	if !dc.Standby && dc.Pod.Standby >= 0 {
		syncTo = dc.Pod.Standby
	}
	return &Delegate{
		c: dc, adm: adm, host: host, syncTo: syncTo,
		sessions: make(map[uint64]*dSession),
		byHandle: make(map[admission.FlowHandle]uint64),
		rep:      make(map[uint64]*dReplica),
		queue:    newCtlQueue(dc.Eng, &dc.Cfg),
	}, nil
}

// HostID returns the delegate's host index.
func (d *Delegate) HostID() int { return d.host }

// PodLeaf returns the pod's leaf switch (the pod identity in telemetry).
func (d *Delegate) PodLeaf() int { return d.c.Pod.Leaf }

// Active reports whether the delegate currently holds the pod's lease.
func (d *Delegate) Active() bool { return d.active }

// ActiveSessions returns the number of locally granted, unreleased
// sessions (telemetry).
func (d *Delegate) ActiveSessions() int { return len(d.sessions) }

// ReservedNow returns the locally reserved session bandwidth (telemetry).
func (d *Delegate) ReservedNow() float64 { return d.cur }

// LeaseFrac returns the current lease fraction (telemetry).
func (d *Delegate) LeaseFrac() float64 { return d.frac }

// LeaseUtil returns the worst reserved-to-lease fraction across the pod's
// links (telemetry).
func (d *Delegate) LeaseUtil() float64 {
	if !d.active {
		return 0
	}
	return d.adm.UtilOfLimit()
}

// QueueDepth returns the control queue occupancy (telemetry).
func (d *Delegate) QueueDepth() int { return d.queue.Depth() }

// ShedCount returns the cumulative setups this delegate shed (telemetry).
func (d *Delegate) ShedCount() uint64 { return d.shed }

// LocalGrantCount returns the cumulative local grants (telemetry).
func (d *Delegate) LocalGrantCount() uint64 { return d.localGrants }

// RevokedCount returns the cumulative local revocations (telemetry).
func (d *Delegate) RevokedCount() uint64 { return d.revoked }

// advanceTo integrates the reserved bandwidth up to now, clipped to the
// measurement window.
func (d *Delegate) advanceTo(now units.Time) {
	lo, hi := d.lastT, now
	if lo < d.c.WarmUp {
		lo = d.c.WarmUp
	}
	if hi > d.c.Horizon {
		hi = d.c.Horizon
	}
	if hi > lo {
		d.integral += d.cur * float64(hi-lo)
	}
	d.lastT = now
}

// addReserved applies a reservation change at the current event time.
func (d *Delegate) addReserved(delta units.Bandwidth) {
	d.advanceTo(d.c.Eng.Now())
	d.cur += float64(delta)
}

// finishIntegral closes the integral at the horizon and returns it
// (called once by the Manager's BuildResults, after the run).
func (d *Delegate) finishIntegral() float64 {
	if !d.finalized {
		d.advanceTo(d.c.Horizon)
		d.finalized = true
	}
	return d.integral
}

// reply sends an in-band message to pod client host dst on this
// delegate's own down flow family. A message to the delegate's own host —
// a promoted standby serving its co-located client — is delivered
// zero-hop through the dispatcher's loopback instead of the fabric.
func (d *Delegate) reply(dst int, msg *Msg) {
	if dst == d.host {
		if d.loop != nil {
			d.loop(msg)
		}
		return
	}
	flow := SigPodDown(dst)
	if d.c.Standby {
		flow = SigPodAltDown(dst)
	}
	d.c.Host.SubmitCtl(flow, d.c.Cfg.SigMsgSize, msg)
}

// toRoot sends an in-band message to the root CAC on the host's shared
// up flow.
func (d *Delegate) toRoot(msg *Msg) {
	d.c.Host.SubmitCtl(SigUp(d.host), d.c.Cfg.SigMsgSize, msg)
}

// podLocal reports whether both hosts attach to this delegate's leaf.
func (d *Delegate) podLocal(a, b int) bool {
	la, _ := d.c.Topo.HostPort(a)
	lb, _ := d.c.Topo.HostPort(b)
	return la == d.c.Pod.Leaf && lb == d.c.Pod.Leaf
}

// HandleMsg serves one control message addressed to the delegate role
// (the host's dispatcher routes opcodes between delegate and client).
func (d *Delegate) HandleMsg(m *Msg) {
	switch m.Op {
	case OpSetup:
		if d.queue != nil {
			if hint, ok := d.queue.enqueue(func() { d.serveSetup(m) }); !ok {
				d.c.Cnt.Shed++
				d.shed++
				d.reply(m.Src, &Msg{Op: OpReject, Session: m.Session, Attempt: m.Attempt, RetryAfter: hint})
			}
			return
		}
		d.serveSetup(m)
	case OpTeardown:
		d.handleTeardown(m)
	case OpLeaseGrant:
		d.onLeaseGrant(m.Frac)
	case OpPromote:
		d.onPromote(m)
	case OpSyncGrant:
		d.rep[m.Session] = &dReplica{
			src: m.Src, dst: m.Dst, bw: m.BW, class: m.Class,
			route: m.Route, reserved: m.Class.Regulated(),
		}
	case OpSyncRelease:
		delete(d.rep, m.Session)
	default:
		panic(fmt.Sprintf("session: delegate %d received %v", d.host, m.Op))
	}
}

// serveSetup admits, replays, or escalates one setup.
func (d *Delegate) serveSetup(m *Msg) {
	if s := d.sessions[m.Session]; s != nil {
		// Retried Setup whose grant is in flight or was lost.
		d.c.Cnt.DupSetups++
		d.reply(m.Src, &Msg{Op: OpGrant, Session: m.Session, Route: s.route, Local: true})
		return
	}
	if r := d.rep[m.Session]; r != nil {
		// Idempotent replay from the replica: the client re-sent a setup
		// the failed primary had granted; honour the original grant.
		d.c.Cnt.FailoverReplays++
		d.reply(m.Src, &Msg{Op: OpGrant, Session: m.Session, Route: r.route, Local: true})
		return
	}
	if !d.active {
		d.escalate(m)
		return
	}
	if m.Class.Regulated() {
		if !d.podLocal(m.Src, m.Dst) {
			// Inter-pod reservations are the root's to arbitrate.
			d.escalate(m)
			return
		}
		route, h, err := d.adm.Reserve(m.Src, m.Dst, m.BW)
		if err != nil {
			// Lease exhausted (or pod fabric dead): ask the root to grow
			// the lease and let it arbitrate this setup meanwhile.
			d.requestLease()
			d.escalate(m)
			return
		}
		d.sessions[m.Session] = &dSession{
			src: m.Src, dst: m.Dst, bw: m.BW, class: m.Class,
			route: route, handle: h, reserved: true,
		}
		d.byHandle[h] = m.Session
		d.addReserved(m.BW)
		d.grantLocal(m)
		return
	}
	// Best-effort sessions need no reservation, only a fixed hashed
	// route; the delegate grants them locally wherever they go.
	d.sessions[m.Session] = &dSession{
		src: m.Src, dst: m.Dst, bw: m.BW, class: m.Class,
		route: d.c.RouteBE(m.Src, m.Dst, m.Session),
	}
	d.grantLocal(m)
}

// grantLocal counts and answers one local admission, mirroring the new
// record to the standby.
func (d *Delegate) grantLocal(m *Msg) {
	d.c.Cnt.Accepted++
	d.c.Cnt.LocalGrants++
	d.localGrants++
	d.sync(m.Session)
	d.reply(m.Src, &Msg{Op: OpGrant, Session: m.Session, Route: d.sessions[m.Session].route, Local: true})
}

// escalate forwards a setup to the root CAC, which replies to the client
// directly — unless the breaker is open, in which case the delegate
// answers here: rejects keep the client's retries pod-local, and the
// retry budget then downgrades the session without ever feeding the
// blackhole towards the dead root.
func (d *Delegate) escalate(m *Msg) {
	if d.rootDark {
		d.c.Cnt.BreakerRejects++
		d.reply(m.Src, &Msg{Op: OpReject, Session: m.Session, Attempt: m.Attempt,
			RetryAfter: d.c.Cfg.LeaseRenew})
		return
	}
	d.c.Cnt.Escalated++
	d.toRoot(m)
}

// sync replicates one session record to the standby (primaries only).
func (d *Delegate) sync(id uint64) {
	if d.syncTo < 0 {
		return
	}
	s := d.sessions[id]
	d.c.Host.SubmitCtl(SigPodDown(d.syncTo), d.c.Cfg.SigMsgSize, &Msg{
		Op: OpSyncGrant, Session: id, Src: s.src, Dst: s.dst,
		BW: s.bw, Class: s.class, Route: s.route,
	})
}

// syncRelease withdraws one replicated record from the standby.
func (d *Delegate) syncRelease(id uint64) {
	if d.syncTo < 0 {
		return
	}
	d.c.Host.SubmitCtl(SigPodDown(d.syncTo), d.c.Cfg.SigMsgSize, &Msg{
		Op: OpSyncRelease, Session: id,
	})
}

// requestLease asks the root to grow the lease by one step, at most one
// request in flight.
func (d *Delegate) requestLease() {
	want := d.frac + d.c.Cfg.LeaseStep
	if d.leaseWanted || d.rootDark || want > MaxLeaseFrac+1e-9 {
		return
	}
	d.leaseWanted = true
	d.c.Cnt.LeaseRequests++
	d.toRoot(&Msg{Op: OpLeaseRequest, Src: d.host, Frac: want})
}

// onLeaseGrant installs a granted (or re-affirmed) lease fraction and
// activates the delegate. Every grant — including renewal acks — counts
// as proof of root liveness, closing the breaker and arming the
// heartbeat on first contact. A zero fraction is an eviction: the root
// no longer considers this instance the pod's CAC (demoted or reclaimed
// while unreachable), so it stops admitting and lets its ledger drain
// through ordinary teardowns.
func (d *Delegate) onLeaseGrant(frac float64) {
	d.leaseWanted = false
	d.lastAck = d.c.Eng.Now()
	d.rootDark = false
	if !d.renewArmed {
		d.renewArmed = true
		d.c.Eng.After(d.c.Cfg.LeaseRenew, d.renewTick)
	}
	if frac <= 0 {
		d.frac = 0
		d.active = false
		return
	}
	d.frac = frac
	d.adm.SetMaxUtil(frac)
	d.active = true
}

// renewTick emits the periodic lease-renewal heartbeat and runs the
// failure detector: a silent root for more than one full renewal period
// beyond the last ack (two unanswered heartbeats) opens the breaker.
func (d *Delegate) renewTick() {
	now := d.c.Eng.Now()
	if !d.rootDark && now-d.lastAck > 2*d.c.Cfg.LeaseRenew {
		d.rootDark = true
		d.c.Cnt.BreakerOpens++
	}
	d.toRoot(&Msg{Op: OpLeaseRenew, Src: d.host})
	d.c.Eng.After(d.c.Cfg.LeaseRenew, d.renewTick)
}

// onPromote makes a passive standby the pod's CAC: it takes over the
// lease and reconciles its ledger from the replica, restoring every
// surviving grant in ascending session order (idempotent, deterministic).
func (d *Delegate) onPromote(m *Msg) {
	if d.active {
		return
	}
	d.onLeaseGrant(m.Frac)
	ids := make([]uint64, 0, len(d.rep))
	for id := range d.rep {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := d.rep[id]
		s := &dSession{src: r.src, dst: r.dst, bw: r.bw, class: r.class,
			route: r.route, reserved: r.reserved}
		if r.reserved {
			h := d.adm.Restore(r.src, r.route, r.bw)
			s.handle = h
			d.byHandle[h] = id
			d.addReserved(r.bw)
		}
		d.sessions[id] = s
	}
	d.rep = make(map[uint64]*dReplica)
	d.c.Cnt.Promotions++
	if m.DownAt > 0 {
		d.c.Cnt.FailoverHist.Add(d.c.Eng.Now() - m.DownAt)
	}
}

// handleTeardown releases one locally granted session.
func (d *Delegate) handleTeardown(m *Msg) {
	s := d.sessions[m.Session]
	if s == nil {
		// Either revoke-downgraded after a fault, or a replica-only record
		// whose grantor died: drop any replica so a later promotion does
		// not resurrect the reservation.
		delete(d.rep, m.Session)
		d.c.Cnt.StaleTeardowns++
		return
	}
	if s.reserved {
		d.adm.Release(s.handle)
		delete(d.byHandle, s.handle)
		d.addReserved(-s.bw)
	}
	delete(d.sessions, m.Session)
	d.c.Cnt.Released++
	d.syncRelease(m.Session)
	if d.active && !d.rootDark && d.adm.ActiveFlows() == 0 && d.frac > d.c.Cfg.LeaseFrac+1e-9 {
		// The pod drained: return the grown share to the root.
		d.frac = d.c.Cfg.LeaseFrac
		d.adm.SetMaxUtil(d.frac)
		d.c.Cnt.LeaseReturns++
		d.toRoot(&Msg{Op: OpLeaseReturn, Src: d.host, Frac: d.frac})
	}
}

// OnLinkDerated mirrors the root's derate handling onto the lease ledger:
// apply the capacity change, then revoke the most recent local
// reservations until the link's reserved load fits again. The network
// schedules this on the delegate's shard RevokeDelay after the fault.
func (d *Delegate) OnLinkDerated(sw, port int, scale float64) {
	d.adm.DerateLink(sw, port, scale)
	if scale >= 1 || !d.active {
		return
	}
	for d.adm.Reserved(sw, port) > d.adm.LinkLimit(sw, port) {
		handles := d.adm.HandlesOn(sw, port)
		victim := uint64(0)
		found := false
		for i := len(handles) - 1; i >= 0; i-- {
			if id, ok := d.byHandle[handles[i]]; ok {
				victim, found = id, true
				break
			}
		}
		if !found {
			return
		}
		d.revoke(victim)
	}
}

// OnSwitchDown marks a switch dead in the lease ledger and repairs the
// stranded local sessions.
func (d *Delegate) OnSwitchDown(sw int, downAt units.Time) {
	d.adm.SetSwitchDown(sw, true)
	d.repairStranded(downAt)
}

// OnSwitchUp clears a switch's dead marking.
func (d *Delegate) OnSwitchUp(sw int) { d.adm.SetSwitchDown(sw, false) }

// OnPortDown marks a cable dead and repairs the stranded local sessions.
func (d *Delegate) OnPortDown(sw, port int, downAt units.Time) {
	d.adm.SetPortDown(sw, port, true)
	d.repairStranded(downAt)
}

// OnPortUp clears a cable's dead marking.
func (d *Delegate) OnPortUp(sw, port int) { d.adm.SetPortDown(sw, port, false) }

// revoke tears one local session out of the lease ledger and either
// re-admits it within the lease or downgrades it (derate path).
func (d *Delegate) revoke(id uint64) {
	s := d.sessions[id]
	d.adm.Release(s.handle)
	delete(d.byHandle, s.handle)
	d.addReserved(-s.bw)
	d.c.Cnt.Revoked++
	d.revoked++
	route, h, err := d.adm.Reserve(s.src, s.dst, s.bw)
	if err != nil {
		delete(d.sessions, id)
		d.c.Cnt.RevokeDowngrades++
		d.syncRelease(id)
		d.reply(s.src, &Msg{Op: OpRevoke, Session: id, Downgrade: true})
		return
	}
	s.handle, s.route = h, route
	d.byHandle[h] = id
	d.addReserved(s.bw)
	d.c.Cnt.Rerouted++
	d.sync(id)
	d.reply(s.src, &Msg{Op: OpRevoke, Session: id, Route: route})
}

// repairStranded sweeps the local session table for routes crossing dead
// fabric, in ascending session order (mirrors the root's sweep).
func (d *Delegate) repairStranded(downAt units.Time) {
	if !d.active {
		return
	}
	var victims []uint64
	for id, s := range d.sessions {
		if d.adm.RouteDead(s.src, s.route) {
			victims = append(victims, id)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	for _, id := range victims {
		d.c.Cnt.SwitchRevoked++
		d.revokeFault(id, downAt)
	}
}

// revokeFault repairs one local session stranded by a switch or port
// failure, mirroring the root's repair ladder within the lease.
func (d *Delegate) revokeFault(id uint64, downAt units.Time) {
	s := d.sessions[id]
	if !s.reserved {
		if route := d.adm.RepairRoute(s.src, s.dst); route != nil {
			s.route = route
			d.c.Cnt.SwitchRerouted++
			d.sync(id)
			d.reply(s.src, &Msg{Op: OpRevoke, Session: id, Route: route, DownAt: downAt})
			return
		}
		delete(d.sessions, id)
		d.c.Cnt.SwitchUnreachable++
		d.syncRelease(id)
		d.reply(s.src, &Msg{Op: OpRevoke, Session: id, Downgrade: true, DownAt: downAt})
		return
	}
	d.adm.Release(s.handle)
	delete(d.byHandle, s.handle)
	d.addReserved(-s.bw)
	d.c.Cnt.Revoked++
	d.revoked++
	route, h, err := d.adm.Reserve(s.src, s.dst, s.bw)
	if err == nil {
		s.handle, s.route = h, route
		d.byHandle[h] = id
		d.addReserved(s.bw)
		d.c.Cnt.Rerouted++
		d.c.Cnt.SwitchRerouted++
		d.sync(id)
		d.reply(s.src, &Msg{Op: OpRevoke, Session: id, Route: route, DownAt: downAt})
		return
	}
	delete(d.sessions, id)
	d.c.Cnt.RevokeDowngrades++
	d.syncRelease(id)
	route = d.adm.RepairRoute(s.src, s.dst)
	if route != nil {
		d.c.Cnt.SwitchDowngraded++
	} else {
		d.c.Cnt.SwitchUnreachable++
	}
	d.reply(s.src, &Msg{Op: OpRevoke, Session: id, Downgrade: true, Route: route, DownAt: downAt})
}

// AuditLedger exposes the lease ledger's balance audit (soak invariants).
func (d *Delegate) AuditLedger() error { return d.adm.AuditLedger() }

// Dispatch returns the Ctl handler for a host running both a session
// client and a delegate CAC, routing each opcode to its role: setups,
// teardowns and the delegate protocol to the delegate, client-bound
// replies (grants, rejects, revokes, retargets) to the client.
func Dispatch(cl *Client, d *Delegate) func(*packet.Packet) {
	d.loop = cl.handleMsg
	return func(p *packet.Packet) {
		m, ok := p.Ctl.(*Msg)
		if !ok {
			panic(fmt.Sprintf("session: host %d received foreign control payload %T", d.host, p.Ctl))
		}
		switch m.Op {
		case OpSetup, OpTeardown, OpLeaseGrant, OpPromote, OpSyncGrant, OpSyncRelease:
			d.HandleMsg(m)
		default:
			cl.HandleCtl(p)
		}
	}
}
