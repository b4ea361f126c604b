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
	cac // active while the delegate holds the pod's lease

	leaf    int // the pod's leaf switch
	topo    topology.Topology
	routeBE func(src, dst int, key uint64) []int

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

	// rep is a standby's replica of the sessions the pod primary granted,
	// maintained through OpSyncGrant/OpSyncRelease. At promotion it
	// reconciles the successor's lease ledger.
	rep map[uint64]*grant
}

// NewDelegate returns the delegate endpoint for dc.Host.
func NewDelegate(dc DelegateConfig) (*Delegate, error) {
	adm, err := admission.New(dc.Topo, dc.LinkBW, dc.Cfg.LeaseFrac)
	if err != nil {
		return nil, fmt.Errorf("session: delegate ledger: %w", err)
	}
	d := &Delegate{
		cac:     newCAC(dc.Host, dc.Eng, dc.Cfg, dc.Cnt, adm, dc.WarmUp, dc.Horizon),
		leaf:    dc.Pod.Leaf,
		topo:    dc.Topo,
		routeBE: dc.RouteBE,
		rep:     make(map[uint64]*grant),
	}
	d.local = true
	d.down = SigPodDown
	if dc.Standby {
		d.down = SigPodAltDown
	} else {
		d.syncTo = dc.Pod.Standby
	}
	return d, nil
}

// HostID returns the delegate's host index.
func (d *Delegate) HostID() int { return d.host }

// PodLeaf returns the pod's leaf switch (the pod identity in telemetry).
func (d *Delegate) PodLeaf() int { return d.leaf }

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

// toRoot sends an in-band message to the root CAC on the host's shared
// up flow.
func (d *Delegate) toRoot(msg *Msg) {
	d.nic.SubmitCtl(SigUp(d.host), d.cfg.SigMsgSize, msg)
}

// podLocal reports whether both hosts attach to this delegate's leaf.
func (d *Delegate) podLocal(a, b int) bool {
	la, _ := d.topo.HostPort(a)
	lb, _ := d.topo.HostPort(b)
	return la == d.leaf && lb == d.leaf
}

// HandleMsg serves one control message addressed to the delegate role
// (the host's dispatcher routes opcodes between delegate and client).
func (d *Delegate) HandleMsg(m *Msg) {
	switch m.Op {
	case OpSetup:
		d.setup(m, d.serveSetup)
	case OpTeardown:
		d.handleTeardown(m)
	case OpLeaseGrant:
		d.onLeaseGrant(m.Frac)
	case OpPromote:
		d.onPromote(m)
	case OpSyncGrant:
		d.rep[m.Session] = newGrant(m, m.Route)
	case OpSyncRelease:
		delete(d.rep, m.Session)
	default:
		panic(fmt.Sprintf("session: delegate %d received %v", d.host, m.Op))
	}
}

// serveSetup admits, replays, or escalates one setup.
func (d *Delegate) serveSetup(m *Msg) {
	if d.regrant(m) {
		return
	}
	if r := d.rep[m.Session]; r != nil {
		// Idempotent replay from the replica: the client re-sent a setup
		// the failed primary had granted; honour the original grant.
		d.cnt.FailoverReplays++
		d.reply(m.Src, &Msg{Op: OpGrant, Session: m.Session, Route: r.route, Local: true})
		return
	}
	if !d.active {
		d.escalate(m)
		return
	}
	if !m.Class.Regulated() {
		// Best-effort sessions need no reservation, only a fixed hashed
		// route; the delegate grants them locally wherever they go.
		d.cnt.LocalGrants++
		d.admit(m, d.routeBE(m.Src, m.Dst, m.Session), 0)
		return
	}
	if !d.podLocal(m.Src, m.Dst) {
		// Inter-pod reservations are the root's to arbitrate.
		d.escalate(m)
		return
	}
	route, h, err := d.adm.Reserve(m.Src, m.Dst, m.BW)
	if err != nil {
		// Lease exhausted (or pod fabric dead): ask the root to grow the
		// lease and let it arbitrate this setup meanwhile.
		d.requestLease()
		d.escalate(m)
		return
	}
	d.cnt.LocalGrants++
	d.admit(m, route, h)
}

// escalate forwards a setup to the root CAC, which replies to the client
// directly — unless the breaker is open, in which case the delegate
// answers here: rejects keep the client's retries pod-local, and the
// retry budget then downgrades the session without ever feeding the
// blackhole towards the dead root.
func (d *Delegate) escalate(m *Msg) {
	if d.rootDark {
		d.cnt.BreakerRejects++
		d.reply(m.Src, &Msg{Op: OpReject, Session: m.Session, Attempt: m.Attempt,
			RetryAfter: d.cfg.LeaseRenew})
		return
	}
	d.cnt.Escalated++
	d.toRoot(m)
}

// requestLease asks the root to grow the lease by one step, at most one
// request in flight.
func (d *Delegate) requestLease() {
	want := d.frac + d.cfg.LeaseStep
	if d.leaseWanted || d.rootDark || want > MaxLeaseFrac+1e-9 {
		return
	}
	d.leaseWanted = true
	d.cnt.LeaseRequests++
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
	d.lastAck = d.eng.Now()
	d.rootDark = false
	if !d.renewArmed {
		d.renewArmed = true
		d.eng.After(d.cfg.LeaseRenew, d.renewTick)
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
	now := d.eng.Now()
	if !d.rootDark && now-d.lastAck > 2*d.cfg.LeaseRenew {
		d.rootDark = true
		d.cnt.BreakerOpens++
	}
	d.toRoot(&Msg{Op: OpLeaseRenew, Src: d.host})
	d.eng.After(d.cfg.LeaseRenew, d.renewTick)
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
		s := d.rep[id]
		if s.reserved() {
			d.hold(id, s, d.adm.Restore(s.src, s.route, s.bw))
		}
		d.sessions[id] = s
	}
	d.rep = make(map[uint64]*grant)
	d.cnt.Promotions++
	if m.DownAt > 0 {
		d.cnt.FailoverHist.Add(d.eng.Now() - m.DownAt)
	}
}

// handleTeardown releases one locally granted session, and returns the
// grown lease share to the root once the pod has drained.
func (d *Delegate) handleTeardown(m *Msg) {
	if !d.teardown(m.Session) {
		// Either revoke-downgraded after a fault, or a replica-only record
		// whose grantor died: drop any replica so a later promotion does
		// not resurrect the reservation.
		delete(d.rep, m.Session)
		return
	}
	if d.active && !d.rootDark && d.adm.ActiveFlows() == 0 && d.frac > d.cfg.LeaseFrac+1e-9 {
		d.frac = d.cfg.LeaseFrac
		d.adm.SetMaxUtil(d.frac)
		d.cnt.LeaseReturns++
		d.toRoot(&Msg{Op: OpLeaseReturn, Src: d.host, Frac: d.frac})
	}
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
