package session

import (
	"fmt"
	"sort"

	"deadlineqos/internal/admission"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/units"
)

// mSession is the CAC-side record of one granted session.
type mSession struct {
	src, dst int
	bw       units.Bandwidth
	class    packet.Class
	route    []int
	handle   admission.FlowHandle
	reserved bool // false for best-effort grants (no ledger entry)
}

// ManagerConfig wires the Manager into its host's shard.
type ManagerConfig struct {
	Host *hostif.Host
	Eng  *sim.Engine // the engine of the shard owning Host
	// Adm is the centralised admission controller. All mutations happen in
	// this manager's event handlers, i.e. on one shard; the admission order
	// is the arrival order on the manager's single ejection link, which is
	// identical in sequential and sharded runs.
	Adm *admission.Controller
	Cfg Config
	Cnt *Counters // the manager shard's counter instance

	Hosts  int
	LinkBW units.Bandwidth
	// WarmUp and Horizon bound the reserved-bandwidth integral window.
	WarmUp, Horizon units.Time

	// Pods and Delegates describe the delegated control plane (empty in
	// centralised mode). Delegates holds every delegate endpoint in pod
	// order, primary before standby; the manager only reads their state
	// after the run, in BuildResults.
	Pods      []Pod
	Delegates []*Delegate
}

// Manager is the centralised CAC endpoint: it serves in-band Setup and
// Teardown messages arriving at its host, and revokes reservations that a
// fault-plan derate has stranded on an oversubscribed link.
type Manager struct {
	c        ManagerConfig
	sessions map[uint64]*mSession
	byHandle map[admission.FlowHandle]uint64

	// Delegated control plane: podFrac and podCAC track, per pod, the
	// leased capacity fraction and which host currently serves as the
	// pod's CAC (-1: the root serves the pod directly).
	pods    []Pod
	podFrac []float64
	podCAC  []int

	// queue is the root's bounded control queue (nil when disabled).
	queue *ctlQueue

	// Per-entity cumulative counters for the telemetry probe rows (the
	// shard Counters mix all entities of a shard together).
	accN, rejN, revN, shedN uint64

	// Reserved-bandwidth integral over [WarmUp, Horizon]: cur is the sum
	// of currently reserved session bandwidth, integrated piecewise at
	// every change. Single-writer (manager events only), so the float
	// operation sequence is identical at any shard count.
	cur       float64
	lastT     units.Time
	integral  float64
	finalized bool
}

// NewManager returns the CAC endpoint for mc.Host.
func NewManager(mc ManagerConfig) *Manager {
	m := &Manager{
		c:        mc,
		sessions: make(map[uint64]*mSession),
		byHandle: make(map[admission.FlowHandle]uint64),
		pods:     mc.Pods,
		podFrac:  make([]float64, len(mc.Pods)),
		podCAC:   make([]int, len(mc.Pods)),
		queue:    newCtlQueue(mc.Eng, &mc.Cfg),
	}
	for i := range m.podCAC {
		m.podCAC[i] = -1
	}
	return m
}

// Bootstrap grants every pod's primary delegate its initial capacity
// lease. The network schedules it at t=0 on the manager's shard when
// delegation is enabled, so the grants ride the in-band signalling flows
// like any other control traffic.
func (m *Manager) Bootstrap() {
	for i := range m.pods {
		if m.pods[i].Primary < 0 {
			continue
		}
		m.podCAC[i] = m.pods[i].Primary
		m.grantLease(i, m.c.Cfg.LeaseFrac)
	}
}

// grantLease carves frac of pod i's host links out of the root ledger and
// tells the pod's CAC (grant and growth share this path; a re-grant of
// the current fraction doubles as a growth denial the delegate can clear
// its outstanding-request flag on).
func (m *Manager) grantLease(i int, frac float64) {
	m.c.Adm.SetPodLease(m.pods[i].Hosts, frac)
	m.podFrac[i] = frac
	m.c.Cnt.LeaseGrants++
	m.reply(m.podCAC[i], &Msg{Op: OpLeaseGrant, Frac: frac})
}

// podByCAC returns the pod index currently served by CAC host h, or -1.
func (m *Manager) podByCAC(h int) int {
	for i, cac := range m.podCAC {
		if cac == h {
			return i
		}
	}
	return -1
}

// advanceTo integrates the current reserved bandwidth up to now, clipped
// to the measurement window.
func (m *Manager) advanceTo(now units.Time) {
	lo, hi := m.lastT, now
	if lo < m.c.WarmUp {
		lo = m.c.WarmUp
	}
	if hi > m.c.Horizon {
		hi = m.c.Horizon
	}
	if hi > lo {
		m.integral += m.cur * float64(hi-lo)
	}
	m.lastT = now
}

// addReserved applies a reservation change at the current event time.
func (m *Manager) addReserved(delta units.Bandwidth) {
	m.advanceTo(m.c.Eng.Now())
	m.cur += float64(delta)
}

// reply sends an in-band control message back to client host dst.
func (m *Manager) reply(dst int, msg *Msg) {
	m.c.Host.SubmitCtl(SigDown(dst), m.c.Cfg.SigMsgSize, msg)
}

// HandleCtl serves control-plane messages delivered to the manager host
// (wired as the host's SetCtlHandler).
func (m *Manager) HandleCtl(p *packet.Packet) {
	msg, ok := p.Ctl.(*Msg)
	if !ok {
		panic(fmt.Sprintf("session: manager received foreign control payload %T", p.Ctl))
	}
	switch msg.Op {
	case OpSetup:
		if m.queue != nil {
			// Overloaded root: bounded queue, deterministic shed with a
			// drain-time hint the client folds into its backoff.
			if hint, ok := m.queue.enqueue(func() { m.handleSetup(msg) }); !ok {
				m.c.Cnt.Shed++
				m.shedN++
				m.reply(msg.Src, &Msg{Op: OpReject, Session: msg.Session, Attempt: msg.Attempt, RetryAfter: hint})
			}
			return
		}
		m.handleSetup(msg)
	case OpTeardown:
		m.handleTeardown(msg)
	case OpLeaseRequest:
		m.handleLeaseRequest(msg)
	case OpLeaseReturn:
		m.handleLeaseReturn(msg)
	case OpLeaseRenew:
		m.handleLeaseRenew(msg)
	default:
		// Client-bound opcodes can only appear here through a wiring bug.
		panic(fmt.Sprintf("session: manager received %v", msg.Op))
	}
}

// handleLeaseRequest grows a pod's lease when the un-leased root share
// can spare it, else re-grants the current fraction (an explicit denial).
func (m *Manager) handleLeaseRequest(msg *Msg) {
	i := m.podByCAC(msg.Src)
	if i < 0 {
		return // delegate demoted while the request was in flight
	}
	want := msg.Frac
	if want > MaxLeaseFrac+1e-9 || !m.c.Adm.CanPodLease(m.pods[i].Hosts, want) {
		m.c.Cnt.LeaseDenied++
		m.grantLease(i, m.podFrac[i])
		return
	}
	m.grantLease(i, want)
}

// handleLeaseReturn shrinks a pod's lease back to the fraction the
// delegate kept (the delegate already stopped admitting above it).
func (m *Manager) handleLeaseReturn(msg *Msg) {
	i := m.podByCAC(msg.Src)
	if i < 0 {
		return
	}
	m.c.Adm.SetPodLease(m.pods[i].Hosts, msg.Frac)
	m.podFrac[i] = msg.Frac
}

// handleLeaseRenew acks a delegate's heartbeat by re-affirming its current
// lease fraction. The ack is the delegates' root-liveness signal: missing
// acks open their escalation breaker. A delegate that is no longer the
// pod's CAC (demoted while unreachable, or its pod reclaimed) is told
// fraction 0, which deactivates it — the renewal path converges stale
// delegates even when the messages that demoted them were lost.
func (m *Manager) handleLeaseRenew(msg *Msg) {
	m.c.Cnt.LeaseRenewals++
	frac := 0.0
	if i := m.podByCAC(msg.Src); i >= 0 {
		frac = m.podFrac[i]
	}
	m.reply(msg.Src, &Msg{Op: OpLeaseGrant, Frac: frac})
}

// handleSetup admits or rejects one session request.
func (m *Manager) handleSetup(msg *Msg) {
	if s := m.sessions[msg.Session]; s != nil {
		// A retried Setup whose original grant is still in flight (or was
		// lost): re-grant idempotently, the client ignores duplicates.
		m.c.Cnt.DupSetups++
		m.reply(msg.Src, &Msg{Op: OpGrant, Session: msg.Session, Route: s.route})
		return
	}
	if msg.Class.Regulated() {
		route, h, err := m.c.Adm.Reserve(msg.Src, msg.Dst, msg.BW)
		if err != nil {
			m.c.Cnt.Rejected++
			m.rejN++
			m.reply(msg.Src, &Msg{Op: OpReject, Session: msg.Session, Attempt: msg.Attempt})
			return
		}
		m.sessions[msg.Session] = &mSession{
			src: msg.Src, dst: msg.Dst, bw: msg.BW, class: msg.Class,
			route: route, handle: h, reserved: true,
		}
		m.byHandle[h] = msg.Session
		m.addReserved(msg.BW)
		m.c.Cnt.Accepted++
		m.accN++
		m.reply(msg.Src, &Msg{Op: OpGrant, Session: msg.Session, Route: route})
		return
	}
	// Unregulated classes get a hashed fixed route, no reservation.
	route := m.c.Adm.RouteBestEffort(msg.Src, msg.Dst, msg.Session)
	m.sessions[msg.Session] = &mSession{
		src: msg.Src, dst: msg.Dst, bw: msg.BW, class: msg.Class, route: route,
	}
	m.c.Cnt.Accepted++
	m.accN++
	m.reply(msg.Src, &Msg{Op: OpGrant, Session: msg.Session, Route: route})
}

// handleTeardown releases one session's reservation.
func (m *Manager) handleTeardown(msg *Msg) {
	s := m.sessions[msg.Session]
	if s == nil {
		// The session was revoke-downgraded after a fault; its record is
		// already gone and its bandwidth already released.
		m.c.Cnt.StaleTeardowns++
		return
	}
	if s.reserved {
		m.c.Adm.Release(s.handle)
		delete(m.byHandle, s.handle)
		m.addReserved(-s.bw)
	}
	delete(m.sessions, msg.Session)
	m.c.Cnt.Released++
}

// OnLinkDerated applies a fault-plan capacity change to the admission
// ledger and revokes session reservations until the link's reserved load
// fits its new limit. Victims are the most recently admitted sessions on
// the link (static provisioned flows are never revoked); each is
// re-admitted over surviving paths when possible, otherwise its client is
// told to continue best effort. The network schedules this on the manager
// shard's engine RevokeDelay after the fault event.
func (m *Manager) OnLinkDerated(sw, port int, scale float64) {
	m.c.Adm.DerateLink(sw, port, scale)
	if scale >= 1 {
		return // restored capacity: nothing to revoke
	}
	for m.c.Adm.Reserved(sw, port) > m.c.Adm.LinkLimit(sw, port) {
		handles := m.c.Adm.HandlesOn(sw, port)
		victim := uint64(0)
		found := false
		for i := len(handles) - 1; i >= 0; i-- {
			if id, ok := m.byHandle[handles[i]]; ok {
				victim, found = id, true
				break
			}
		}
		if !found {
			return // only static reservations remain above the limit
		}
		m.revoke(victim)
	}
}

// revoke tears one session's reservation out of the ledger and either
// re-admits it over surviving paths or downgrades it.
func (m *Manager) revoke(id uint64) {
	s := m.sessions[id]
	m.c.Adm.Release(s.handle)
	delete(m.byHandle, s.handle)
	m.addReserved(-s.bw)
	m.c.Cnt.Revoked++
	m.revN++
	route, h, err := m.c.Adm.Reserve(s.src, s.dst, s.bw)
	if err != nil {
		delete(m.sessions, id)
		m.c.Cnt.RevokeDowngrades++
		m.reply(s.src, &Msg{Op: OpRevoke, Session: id, Downgrade: true})
		return
	}
	s.handle, s.route = h, route
	m.byHandle[h] = id
	m.addReserved(s.bw)
	m.c.Cnt.Rerouted++
	m.reply(s.src, &Msg{Op: OpRevoke, Session: id, Route: route})
}

// OnSwitchDown marks a whole switch dead in the admission ledger and
// repairs every session whose route the failure strands. downAt is the
// fault's event time (carried to clients for time-to-repair telemetry).
// The network schedules this on the manager shard's engine RevokeDelay
// after the fault, mirroring OnLinkDerated.
func (m *Manager) OnSwitchDown(sw int, downAt units.Time) {
	m.c.Adm.SetSwitchDown(sw, true)
	m.repairStranded(downAt)
	m.checkDelegates(downAt)
}

// OnSwitchUp clears a switch's dead marking. Already-repaired sessions
// keep their detour routes; new admissions may use the switch again.
func (m *Manager) OnSwitchUp(sw int) {
	m.c.Adm.SetSwitchDown(sw, false)
}

// OnPortDown marks both directions of one cable dead and repairs the
// sessions it strands.
func (m *Manager) OnPortDown(sw, port int, downAt units.Time) {
	m.c.Adm.SetPortDown(sw, port, true)
	m.repairStranded(downAt)
	m.checkDelegates(downAt)
}

// checkDelegates runs the deterministic failover state machine after
// every switch or port failure: any pod whose current CAC host lost its
// attachment gets its standby promoted (lease carried over, clients
// retargeted) or, with no live standby, its lease reclaimed so the root
// serves the pod directly. Pods are scanned in ascending order; no
// failback on recovery — a repaired ex-primary stays retired.
func (m *Manager) checkDelegates(downAt units.Time) {
	mgr := m.c.Host.ID()
	for i := range m.pods {
		cac := m.podCAC[i]
		if cac < 0 || !m.c.Adm.HostDead(cac) {
			continue
		}
		p := m.pods[i]
		if cac == p.Primary && p.Standby >= 0 && !m.c.Adm.HostDead(p.Standby) {
			m.podCAC[i] = p.Standby
			m.reply(p.Standby, &Msg{Op: OpPromote, Frac: m.podFrac[i], DownAt: downAt})
			for _, h := range p.Hosts {
				if h == p.Standby || h == p.Primary || h == mgr {
					continue
				}
				m.reply(h, &Msg{Op: OpRetarget, Target: p.Standby})
			}
			// The standby's own client must stop targeting the dead
			// primary; it asks the root directly from now on.
			m.reply(p.Standby, &Msg{Op: OpRetarget, Target: -1})
			continue
		}
		// No live standby: reclaim the lease, serve the pod from the root.
		m.podCAC[i] = -1
		m.podFrac[i] = 0
		m.c.Adm.SetPodLease(p.Hosts, 0)
		m.c.Cnt.Reclaims++
		for _, h := range p.Hosts {
			if h == cac || h == mgr {
				continue
			}
			m.reply(h, &Msg{Op: OpRetarget, Target: -1})
		}
	}
}

// OnPortUp clears a cable's dead marking.
func (m *Manager) OnPortUp(sw, port int) {
	m.c.Adm.SetPortDown(sw, port, false)
}

// repairStranded sweeps the session table for routes that now cross dead
// fabric and repairs each: reroute-or-revoke for reservations, repair-or-
// abandon for best-effort grants. Victims are processed in ascending
// session-id order — map iteration order is not deterministic, the repair
// order (and thus the admission ledger's float sequence) must be.
func (m *Manager) repairStranded(downAt units.Time) {
	var victims []uint64
	for id, s := range m.sessions {
		if m.c.Adm.RouteDead(s.src, s.route) {
			victims = append(victims, id)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	for _, id := range victims {
		m.c.Cnt.SwitchRevoked++
		m.revokeFault(id, downAt)
	}
}

// revokeFault repairs one session stranded by a switch or port failure.
// Unlike revoke (derates), the session may be a best-effort grant with no
// ledger entry, and the host pair may be partitioned outright.
func (m *Manager) revokeFault(id uint64, downAt units.Time) {
	s := m.sessions[id]
	if !s.reserved {
		// Best-effort grant: just hand the client a repaired route, or tell
		// it the pair is partitioned (it keeps transmitting into the void;
		// the conservation ledger accounts the drops).
		if route := m.c.Adm.RepairRoute(s.src, s.dst); route != nil {
			s.route = route
			m.c.Cnt.SwitchRerouted++
			m.reply(s.src, &Msg{Op: OpRevoke, Session: id, Route: route, DownAt: downAt})
			return
		}
		delete(m.sessions, id)
		m.c.Cnt.SwitchUnreachable++
		m.reply(s.src, &Msg{Op: OpRevoke, Session: id, Downgrade: true, DownAt: downAt})
		return
	}
	m.c.Adm.Release(s.handle)
	delete(m.byHandle, s.handle)
	m.addReserved(-s.bw)
	m.c.Cnt.Revoked++
	m.revN++
	route, h, err := m.c.Adm.Reserve(s.src, s.dst, s.bw)
	if err == nil {
		s.handle, s.route = h, route
		m.byHandle[h] = id
		m.addReserved(s.bw)
		m.c.Cnt.Rerouted++
		m.c.Cnt.SwitchRerouted++
		m.reply(s.src, &Msg{Op: OpRevoke, Session: id, Route: route, DownAt: downAt})
		return
	}
	// No re-admission: downgrade to best effort over a repaired route when
	// one exists, or report the pair unreachable.
	delete(m.sessions, id)
	m.c.Cnt.RevokeDowngrades++
	route = m.c.Adm.RepairRoute(s.src, s.dst)
	if route != nil {
		m.c.Cnt.SwitchDowngraded++
	} else {
		m.c.Cnt.SwitchUnreachable++
	}
	m.reply(s.src, &Msg{Op: OpRevoke, Session: id, Downgrade: true, Route: route, DownAt: downAt})
}

// ActiveSessions returns the number of granted, not-yet-released sessions
// (telemetry).
func (m *Manager) ActiveSessions() int { return len(m.sessions) }

// ReservedNow returns the currently reserved session bandwidth in
// bytes/ns (telemetry).
func (m *Manager) ReservedNow() float64 { return m.cur }

// QueueDepth returns the root control queue's occupancy (telemetry).
func (m *Manager) QueueDepth() int { return m.queue.Depth() }

// ShedCount returns the cumulative setups the root shed (telemetry).
func (m *Manager) ShedCount() uint64 { return m.shedN }

// AcceptedCount returns the root's cumulative accepted setups, excluding
// delegate grants (telemetry).
func (m *Manager) AcceptedCount() uint64 { return m.accN }

// RejectedCount returns the root's cumulative rejected setups (telemetry).
func (m *Manager) RejectedCount() uint64 { return m.rejN }

// RevokedCount returns the root's cumulative revocations (telemetry).
func (m *Manager) RevokedCount() uint64 { return m.revN }

// BuildResults finalises the reserved-bandwidth integral and summarises
// the merged counters into the run's session Results.
func (m *Manager) BuildResults(cnt *Counters) *Results {
	if !m.finalized {
		m.advanceTo(m.c.Horizon)
		m.finalized = true
	}
	// Fold the delegate CACs' reserved-bandwidth integrals and horizon
	// state into the run totals, in the fixed Delegates order (primary
	// before standby, pods ascending) so the float sums are deterministic.
	integral := m.integral
	active := len(m.sessions)
	resvAtStop := m.cur
	for _, d := range m.c.Delegates {
		integral += d.finishIntegral()
		active += len(d.sessions)
		resvAtStop += d.cur
	}
	r := &Results{
		Started: cnt.Started, SetupsSent: cnt.SetupsSent, Retries: cnt.Retries,
		Timeouts: cnt.Timeouts, Granted: cnt.Granted,
		Accepted: cnt.Accepted, Rejected: cnt.Rejected,
		RejectsSeen: cnt.RejectsSeen, Downgraded: cnt.Downgraded,
		Finished: cnt.Finished, TeardownsSent: cnt.TeardownsSent,
		Released: cnt.Released, StaleTears: cnt.StaleTeardowns,
		DupSetups: cnt.DupSetups, Revoked: cnt.Revoked, Rerouted: cnt.Rerouted,
		RevokeDowngrades:  cnt.RevokeDowngrades,
		SwitchRevoked:     cnt.SwitchRevoked,
		SwitchRerouted:    cnt.SwitchRerouted,
		SwitchDowngraded:  cnt.SwitchDowngraded,
		SwitchUnreachable: cnt.SwitchUnreachable,
		RepairCount:       cnt.RepairLatHist.Count(),
		SetupCount:        cnt.SetupLatency.Count(),
		SetupMeanNs:       cnt.SetupLatency.Mean(),
		DataBytes:         cnt.DataBytes, DataPackets: cnt.DataPackets,
		SigBytes: cnt.SigBytes, SigPackets: cnt.SigPackets,
		ActiveAtStop:   active,
		ReservedAtStop: resvAtStop,
	}
	cp := &ControlPlane{
		Delegated: m.c.Cfg.Delegation,
		Pods:      len(m.pods),
		Delegates: len(m.c.Delegates),

		LocalGrants: cnt.LocalGrants, Escalated: cnt.Escalated,
		Shed: cnt.Shed, Retargets: cnt.Retargets,
		LeaseGrants: cnt.LeaseGrants, LeaseRequests: cnt.LeaseRequests,
		LeaseReturns: cnt.LeaseReturns, LeaseDenied: cnt.LeaseDenied,
		Promotions: cnt.Promotions, Reclaims: cnt.Reclaims,
		FailoverReplays: cnt.FailoverReplays,
		LeaseRenewals:   cnt.LeaseRenewals,
		BreakerOpens:    cnt.BreakerOpens,
		BreakerRejects:  cnt.BreakerRejects,
		FailoverCount:   cnt.FailoverHist.Count(),
	}
	if cp.FailoverCount > 0 {
		cp.FailoverP50 = cnt.FailoverHist.Quantile(0.50)
		cp.FailoverP99 = cnt.FailoverHist.Quantile(0.99)
	}
	r.ControlPlane = cp
	if cnt.SetupLatHist.Count() > 0 {
		r.SetupP50 = cnt.SetupLatHist.Quantile(0.50)
		r.SetupP99 = cnt.SetupLatHist.Quantile(0.99)
	}
	if cnt.RepairLatHist.Count() > 0 {
		r.RepairP50 = cnt.RepairLatHist.Quantile(0.50)
		r.RepairP99 = cnt.RepairLatHist.Quantile(0.99)
	}
	if decided := cnt.Granted + cnt.Downgraded; decided > 0 {
		r.AcceptRatio = float64(cnt.Granted) / float64(decided)
	}
	window := m.c.Horizon - m.c.WarmUp
	if cap := float64(window) * float64(m.c.LinkBW) * float64(m.c.Hosts); cap > 0 {
		r.ReservedUtil = integral / cap
		r.AchievedUtil = float64(cnt.DataBytes) / cap
	}
	return r
}
