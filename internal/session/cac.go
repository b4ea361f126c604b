package session

import (
	"sort"

	"deadlineqos/internal/admission"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/sim"
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

// grant is a CAC's record of one granted session. A standby keeps the
// same record, without a ledger handle, as its replica of a session the
// pod primary granted.
type grant struct {
	src, dst int
	bw       units.Bandwidth
	class    packet.Class
	route    []int
	handle   admission.FlowHandle // ledger entry; regulated classes only
}

// newGrant returns the record of the session m describes over route.
func newGrant(m *Msg, route []int) *grant {
	return &grant{src: m.Src, dst: m.Dst, bw: m.BW, class: m.Class, route: route}
}

// reserved reports whether the session holds a ledger reservation
// (best-effort grants get a route only).
func (g *grant) reserved() bool { return g.class.Regulated() }

// cac is the part every CAC endpoint shares: the admission ledger, the
// session table, the bounded control queue, the reserved-bandwidth
// integral, the per-entity telemetry counters, standby replication and
// the fault handling. The root Manager and each pod Delegate embed one
// and add their role. All of it runs in events on the owning host's
// engine.
type cac struct {
	nic  *hostif.Host
	host int // nic's host index
	eng  *sim.Engine
	cfg  Config
	cnt  *Counters // the owning shard's counter instance
	adm  *admission.Controller

	// active gates delegate admission and fault handling; the root sets
	// it once, at construction.
	active bool
	// syncTo is the standby mirroring this CAC's grants, -1 for none (the
	// root, standbys, and primaries of pods without a standby).
	syncTo int
	// down names the flow a message to host dst rides.
	down func(dst int) packet.FlowID
	// local marks this CAC's grants as a pod delegate's: the client sends
	// the teardown back here rather than to the root.
	local bool
	// loop delivers a message to the co-located client without touching
	// the fabric (set by Dispatch; a CAC host is its own one-hop target).
	loop func(*Msg)

	sessions map[uint64]*grant
	byHandle map[admission.FlowHandle]uint64
	queue    *ctlQueue

	// This endpoint's cumulative setup decisions. The telemetry probe
	// rows read them per endpoint, the metrics plane per shard and
	// BuildResults summed over all endpoints.
	accepted, rejected, revoked, shed uint64

	// Reserved-bandwidth integral over [warmUp, horizon]: cur is the sum
	// of currently reserved session bandwidth, integrated piecewise at
	// every change. Single-writer (this endpoint's events only), so the
	// float operation sequence is identical at any shard count.
	warmUp, horizon units.Time
	cur             float64
	lastT           units.Time
	integral        float64
	finalized       bool
}

// newCAC returns the shared core of the CAC endpoint on host, admitting
// into adm and replying on the root's down flows. The roles adjust the
// flow family, the standby and the active flag.
func newCAC(host *hostif.Host, eng *sim.Engine, cfg Config, cnt *Counters,
	adm *admission.Controller, warmUp, horizon units.Time) cac {
	return cac{
		nic: host, host: host.ID(), eng: eng, cfg: cfg, cnt: cnt, adm: adm,
		syncTo: -1, down: SigDown,
		sessions: make(map[uint64]*grant),
		byHandle: make(map[admission.FlowHandle]uint64),
		queue:    newCtlQueue(eng, &cfg),
		warmUp:   warmUp, horizon: horizon,
	}
}

// advanceTo integrates the current reserved bandwidth up to now, clipped
// to the measurement window.
func (c *cac) advanceTo(now units.Time) {
	lo, hi := c.lastT, now
	if lo < c.warmUp {
		lo = c.warmUp
	}
	if hi > c.horizon {
		hi = c.horizon
	}
	if hi > lo {
		c.integral += c.cur * float64(hi-lo)
	}
	c.lastT = now
}

// addReserved applies a reservation change at the current event time.
func (c *cac) addReserved(delta units.Bandwidth) {
	c.advanceTo(c.eng.Now())
	c.cur += float64(delta)
}

// finishIntegral closes the integral at the horizon and returns it
// (called once by the Manager's BuildResults, after the run).
func (c *cac) finishIntegral() float64 {
	if !c.finalized {
		c.advanceTo(c.horizon)
		c.finalized = true
	}
	return c.integral
}

// reply sends an in-band message to host dst on this CAC's down flow
// family. A message to the CAC's own host — a promoted standby serving
// its co-located client — is delivered zero-hop through the
// dispatcher's loopback instead of the fabric.
func (c *cac) reply(dst int, msg *Msg) {
	if dst == c.host {
		if c.loop != nil {
			c.loop(msg)
		}
		return
	}
	c.nic.SubmitCtl(c.down(dst), c.cfg.SigMsgSize, msg)
}

// setup hands one Setup to serve, through the bounded control queue when
// it is enabled. A full queue sheds the setup deterministically, with a
// drain-time hint the client folds into its backoff.
func (c *cac) setup(m *Msg, serve func(*Msg)) {
	if c.queue == nil {
		serve(m)
		return
	}
	if hint, ok := c.queue.enqueue(func() { serve(m) }); !ok {
		c.shed++
		c.reply(m.Src, &Msg{Op: OpReject, Session: m.Session, Attempt: m.Attempt, RetryAfter: hint})
	}
}

// regrant answers a retried Setup whose original grant is still in flight
// (or was lost) idempotently, and reports whether m was such a retry; the
// client ignores duplicates.
func (c *cac) regrant(m *Msg) bool {
	s := c.sessions[m.Session]
	if s == nil {
		return false
	}
	c.cnt.DupSetups++
	c.reply(m.Src, &Msg{Op: OpGrant, Session: m.Session, Route: s.route, Local: c.local})
	return true
}

// admit records the session m asks for over route, holding ledger entry h
// when its class is regulated, mirrors it to the standby and grants it.
func (c *cac) admit(m *Msg, route []int, h admission.FlowHandle) {
	s := newGrant(m, route)
	if s.reserved() {
		c.hold(m.Session, s, h)
	}
	c.sessions[m.Session] = s
	c.accepted++
	c.sync(m.Session)
	c.reply(m.Src, &Msg{Op: OpGrant, Session: m.Session, Route: route, Local: c.local})
}

// hold records that session id holds ledger entry h.
func (c *cac) hold(id uint64, s *grant, h admission.FlowHandle) {
	s.handle = h
	c.byHandle[h] = id
	c.addReserved(s.bw)
}

// drop returns s's reservation to the ledger.
func (c *cac) drop(s *grant) {
	c.adm.Release(s.handle)
	delete(c.byHandle, s.handle)
	c.addReserved(-s.bw)
}

// teardown releases one session on its Teardown and reports whether the
// CAC still held it (a session revoke-downgraded after a fault is
// already gone, its bandwidth already released).
func (c *cac) teardown(id uint64) bool {
	s := c.sessions[id]
	if s == nil {
		c.cnt.StaleTeardowns++
		return false
	}
	if s.reserved() {
		c.drop(s)
	}
	delete(c.sessions, id)
	c.cnt.Released++
	c.syncRelease(id)
	return true
}

// sync replicates one session record to the standby.
func (c *cac) sync(id uint64) {
	if c.syncTo < 0 {
		return
	}
	s := c.sessions[id]
	c.reply(c.syncTo, &Msg{
		Op: OpSyncGrant, Session: id, Src: s.src, Dst: s.dst,
		BW: s.bw, Class: s.class, Route: s.route,
	})
}

// syncRelease withdraws one replicated record from the standby.
func (c *cac) syncRelease(id uint64) {
	if c.syncTo < 0 {
		return
	}
	c.reply(c.syncTo, &Msg{Op: OpSyncRelease, Session: id})
}

// OnLinkDerated applies a fault-plan capacity change to the ledger and
// revokes session reservations until the link's reserved load fits its
// new limit. Victims are the most recently admitted sessions on the link
// (static provisioned flows are never revoked); each is re-admitted over
// surviving paths when possible, otherwise its client is told to continue
// best effort. The network schedules this on the CAC's shard one
// management delay after the fault event.
func (c *cac) OnLinkDerated(sw, port int, scale float64) {
	c.adm.DerateLink(sw, port, scale)
	if scale >= 1 || !c.active {
		return // restored capacity: nothing to revoke
	}
	for c.adm.Reserved(sw, port) > c.adm.LinkLimit(sw, port) {
		handles := c.adm.HandlesOn(sw, port)
		victim := uint64(0)
		found := false
		for i := len(handles) - 1; i >= 0; i-- {
			if id, ok := c.byHandle[handles[i]]; ok {
				victim, found = id, true
				break
			}
		}
		if !found {
			return // only static reservations remain above the limit
		}
		c.revoke(victim)
	}
}

// readmit tears one session's reservation out of the ledger and reserves
// it again over surviving paths. It reports whether that succeeded; if
// not, the session is dropped. The caller tells the client either way.
func (c *cac) readmit(id uint64) (*grant, bool) {
	s := c.sessions[id]
	c.drop(s)
	c.revoked++
	route, h, err := c.adm.Reserve(s.src, s.dst, s.bw)
	if err != nil {
		delete(c.sessions, id)
		c.cnt.RevokeDowngrades++
		c.syncRelease(id)
		return s, false
	}
	s.route = route
	c.hold(id, s, h)
	c.cnt.Rerouted++
	c.sync(id)
	return s, true
}

// revoke re-admits one session over surviving paths or downgrades it
// (derate path).
func (c *cac) revoke(id uint64) {
	s, ok := c.readmit(id)
	if !ok {
		c.reply(s.src, &Msg{Op: OpRevoke, Session: id, Downgrade: true})
		return
	}
	c.reply(s.src, &Msg{Op: OpRevoke, Session: id, Route: s.route})
}

// OnSwitchDown marks a whole switch dead in the ledger and repairs every
// session whose route the failure strands. downAt is the fault's event
// time (carried to clients for time-to-repair telemetry).
func (c *cac) OnSwitchDown(sw int, downAt units.Time) {
	c.adm.SetSwitchDown(sw, true)
	c.repairStranded(downAt)
}

// OnSwitchUp clears a switch's dead marking. Already-repaired sessions
// keep their detour routes; new admissions may use the switch again.
func (c *cac) OnSwitchUp(sw int) { c.adm.SetSwitchDown(sw, false) }

// OnPortDown marks both directions of one cable dead and repairs the
// sessions it strands.
func (c *cac) OnPortDown(sw, port int, downAt units.Time) {
	c.adm.SetPortDown(sw, port, true)
	c.repairStranded(downAt)
}

// OnPortUp clears a cable's dead marking.
func (c *cac) OnPortUp(sw, port int) { c.adm.SetPortDown(sw, port, false) }

// repairStranded sweeps the session table for routes that now cross dead
// fabric and repairs each: reroute-or-revoke for reservations, repair-or-
// abandon for best-effort grants. Victims are processed in ascending
// session-id order — map iteration order is not deterministic, the repair
// order (and thus the ledger's float sequence) must be.
func (c *cac) repairStranded(downAt units.Time) {
	if !c.active {
		return
	}
	var victims []uint64
	for id, s := range c.sessions {
		if c.adm.RouteDead(s.src, s.route) {
			victims = append(victims, id)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	for _, id := range victims {
		c.cnt.SwitchRevoked++
		c.revokeFault(id, downAt)
	}
}

// revokeFault repairs one session stranded by a switch or port failure.
// Unlike revoke (derates), the session may be a best-effort grant with no
// ledger entry, and the host pair may be partitioned outright.
func (c *cac) revokeFault(id uint64, downAt units.Time) {
	s := c.sessions[id]
	if !s.reserved() {
		// Best-effort grant: just hand the client a repaired route, or tell
		// it the pair is partitioned (it keeps transmitting into the void;
		// the conservation ledger accounts the drops).
		if route := c.adm.RepairRoute(s.src, s.dst); route != nil {
			s.route = route
			c.cnt.SwitchRerouted++
			c.sync(id)
			c.reply(s.src, &Msg{Op: OpRevoke, Session: id, Route: route, DownAt: downAt})
			return
		}
		delete(c.sessions, id)
		c.cnt.SwitchUnreachable++
		c.syncRelease(id)
		c.reply(s.src, &Msg{Op: OpRevoke, Session: id, Downgrade: true, DownAt: downAt})
		return
	}
	if _, ok := c.readmit(id); ok {
		c.cnt.SwitchRerouted++
		c.reply(s.src, &Msg{Op: OpRevoke, Session: id, Route: s.route, DownAt: downAt})
		return
	}
	// No re-admission: downgrade to best effort over a repaired route when
	// one exists, or report the pair unreachable.
	route := c.adm.RepairRoute(s.src, s.dst)
	if route != nil {
		c.cnt.SwitchDowngraded++
	} else {
		c.cnt.SwitchUnreachable++
	}
	c.reply(s.src, &Msg{Op: OpRevoke, Session: id, Downgrade: true, Route: route, DownAt: downAt})
}

// ActiveSessions returns the number of granted, not-yet-released sessions
// (telemetry).
func (c *cac) ActiveSessions() int { return len(c.sessions) }

// ReservedNow returns the currently reserved session bandwidth in
// bytes/ns (telemetry).
func (c *cac) ReservedNow() float64 { return c.cur }

// QueueDepth returns the control queue's occupancy (telemetry).
func (c *cac) QueueDepth() int { return c.queue.Depth() }

// AcceptedCount returns the endpoint's cumulative grants; the root's
// exclude delegate grants (telemetry).
func (c *cac) AcceptedCount() uint64 { return c.accepted }

// RejectedCount returns the endpoint's cumulative capacity rejects
// (telemetry).
func (c *cac) RejectedCount() uint64 { return c.rejected }

// RevokedCount returns the endpoint's cumulative revocations (telemetry).
func (c *cac) RevokedCount() uint64 { return c.revoked }

// ShedCount returns the cumulative setups the endpoint shed (telemetry).
func (c *cac) ShedCount() uint64 { return c.shed }
