package session

import (
	"fmt"

	"deadlineqos/internal/admission"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/units"
)

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

// Manager is the root CAC endpoint: it serves in-band Setup and Teardown
// messages arriving at its host, revokes reservations that a fault-plan
// derate has stranded on an oversubscribed link, and, in delegated mode,
// leases pod capacity to the delegates and runs their failover.
type Manager struct {
	cac

	// Delegated control plane: podFrac and podCAC track, per pod, the
	// leased capacity fraction and which host currently serves as the
	// pod's CAC (-1: the root serves the pod directly). delegates is only
	// read after the run, in BuildResults.
	pods      []Pod
	podFrac   []float64
	podCAC    []int
	delegates []*Delegate

	// hosts and linkBW size the utilisation denominators in BuildResults.
	hosts  int
	linkBW units.Bandwidth
}

// NewManager returns the CAC endpoint for mc.Host.
func NewManager(mc ManagerConfig) *Manager {
	m := &Manager{
		cac:       newCAC(mc.Host, mc.Eng, mc.Cfg, mc.Cnt, mc.Adm, mc.WarmUp, mc.Horizon),
		pods:      mc.Pods,
		podFrac:   make([]float64, len(mc.Pods)),
		podCAC:    make([]int, len(mc.Pods)),
		delegates: mc.Delegates,
		hosts:     mc.Hosts,
		linkBW:    mc.LinkBW,
	}
	m.active = true
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
		m.grantLease(i, m.cfg.LeaseFrac)
	}
}

// grantLease carves frac of pod i's host links out of the root ledger and
// tells the pod's CAC (grant and growth share this path; a re-grant of
// the current fraction doubles as a growth denial the delegate can clear
// its outstanding-request flag on).
func (m *Manager) grantLease(i int, frac float64) {
	m.adm.SetPodLease(m.pods[i].Hosts, frac)
	m.podFrac[i] = frac
	m.cnt.LeaseGrants++
	m.reply(m.podCAC[i], &Msg{Op: OpLeaseGrant, Frac: frac})
}

// podByCAC returns the pod index currently served by CAC host h, or -1.
func (m *Manager) podByCAC(h int) int {
	for i, cur := range m.podCAC {
		if cur == h {
			return i
		}
	}
	return -1
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
		m.setup(msg, m.handleSetup)
	case OpTeardown:
		m.teardown(msg.Session)
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
	if want > MaxLeaseFrac+1e-9 || !m.adm.CanPodLease(m.pods[i].Hosts, want) {
		m.cnt.LeaseDenied++
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
	m.adm.SetPodLease(m.pods[i].Hosts, msg.Frac)
	m.podFrac[i] = msg.Frac
}

// handleLeaseRenew acks a delegate's heartbeat by re-affirming its current
// lease fraction. The ack is the delegates' root-liveness signal: missing
// acks open their escalation breaker. A delegate that is no longer the
// pod's CAC (demoted while unreachable, or its pod reclaimed) is told
// fraction 0, which deactivates it — the renewal path converges stale
// delegates even when the messages that demoted them were lost.
func (m *Manager) handleLeaseRenew(msg *Msg) {
	m.cnt.LeaseRenewals++
	frac := 0.0
	if i := m.podByCAC(msg.Src); i >= 0 {
		frac = m.podFrac[i]
	}
	m.reply(msg.Src, &Msg{Op: OpLeaseGrant, Frac: frac})
}

// handleSetup admits or rejects one session request. Unregulated classes
// get a hashed fixed route, no reservation.
func (m *Manager) handleSetup(msg *Msg) {
	if m.regrant(msg) {
		return
	}
	if !msg.Class.Regulated() {
		m.admit(msg, m.adm.RouteBestEffort(msg.Src, msg.Dst, msg.Session), 0)
		return
	}
	route, h, err := m.adm.Reserve(msg.Src, msg.Dst, msg.BW)
	if err != nil {
		m.rejected++
		m.reply(msg.Src, &Msg{Op: OpReject, Session: msg.Session, Attempt: msg.Attempt})
		return
	}
	m.admit(msg, route, h)
}

// OnSwitchDown repairs the sessions a dead switch strands, then runs
// delegate failover. The network schedules this on the manager shard's
// engine one management delay after the fault, like OnLinkDerated.
func (m *Manager) OnSwitchDown(sw int, downAt units.Time) {
	m.cac.OnSwitchDown(sw, downAt)
	m.checkDelegates(downAt)
}

// OnPortDown repairs the sessions a cut cable strands, then runs delegate
// failover.
func (m *Manager) OnPortDown(sw, port int, downAt units.Time) {
	m.cac.OnPortDown(sw, port, downAt)
	m.checkDelegates(downAt)
}

// checkDelegates runs the deterministic failover state machine after
// every switch or port failure: any pod whose current CAC host lost its
// attachment gets its standby promoted (lease carried over, clients
// retargeted) or, with no live standby, its lease reclaimed so the root
// serves the pod directly. Pods are scanned in ascending order; no
// failback on recovery — a repaired ex-primary stays retired.
func (m *Manager) checkDelegates(downAt units.Time) {
	for i := range m.pods {
		cur := m.podCAC[i]
		if cur < 0 || !m.adm.HostDead(cur) {
			continue
		}
		p := m.pods[i]
		if cur == p.Primary && p.Standby >= 0 && !m.adm.HostDead(p.Standby) {
			m.podCAC[i] = p.Standby
			m.reply(p.Standby, &Msg{Op: OpPromote, Frac: m.podFrac[i], DownAt: downAt})
			for _, h := range p.Hosts {
				if h == p.Standby || h == p.Primary || h == m.host {
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
		m.adm.SetPodLease(p.Hosts, 0)
		m.cnt.Reclaims++
		for _, h := range p.Hosts {
			if h == cur || h == m.host {
				continue
			}
			m.reply(h, &Msg{Op: OpRetarget, Target: -1})
		}
	}
}

// BuildResults finalises the reserved-bandwidth integral and summarises
// the merged counters into the run's session Results.
func (m *Manager) BuildResults(cnt *Counters) *Results {
	// Fold the delegate CACs' decisions, reserved-bandwidth integrals and
	// horizon state into the run totals, in the fixed delegates order
	// (primary before standby, pods ascending) so the float sums are
	// deterministic.
	integral := m.finishIntegral()
	active := len(m.sessions)
	resvAtStop := m.cur
	accepted, rejected, revoked, shed := m.accepted, m.rejected, m.revoked, m.shed
	for _, d := range m.delegates {
		integral += d.finishIntegral()
		active += len(d.sessions)
		resvAtStop += d.cur
		accepted += d.accepted
		rejected += d.rejected
		revoked += d.revoked
		shed += d.shed
	}
	r := &Results{
		Started: cnt.Started, SetupsSent: cnt.SetupsSent, Retries: cnt.Retries,
		Timeouts: cnt.Timeouts, Granted: cnt.Granted,
		Accepted: accepted, Rejected: rejected,
		RejectsSeen: cnt.RejectsSeen, Downgraded: cnt.Downgraded,
		Finished: cnt.Finished, TeardownsSent: cnt.TeardownsSent,
		Released: cnt.Released, StaleTears: cnt.StaleTeardowns,
		DupSetups: cnt.DupSetups, Revoked: revoked, Rerouted: cnt.Rerouted,
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
		Delegated: m.cfg.Delegation,
		Pods:      len(m.pods),
		Delegates: len(m.delegates),

		LocalGrants: cnt.LocalGrants, Escalated: cnt.Escalated,
		Shed: shed, Retargets: cnt.Retargets,
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
	window := m.horizon - m.warmUp
	if cap := float64(window) * float64(m.linkBW) * float64(m.hosts); cap > 0 {
		r.ReservedUtil = integral / cap
		r.AchievedUtil = float64(cnt.DataBytes) / cap
	}
	return r
}
