package session

import (
	"fmt"

	"deadlineqos/internal/hostif"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/units"
	"deadlineqos/internal/xrand"
)

// cState is a client session's lifecycle state.
type cState uint8

const (
	stSignalling cState = iota // Setup sent, awaiting Grant/Reject
	stActive                   // data flowing until stopAt
	stDone
)

// cSession is the client-side record of one session.
type cSession struct {
	id      uint64
	dst     int
	class   packet.Class
	bw      units.Bandwidth
	msgSize units.Size
	hold    units.Time
	flowID  packet.FlowID

	state      cState
	attempt    int
	firstSetup units.Time // when the first Setup was sent (latency base)
	granted    bool       // holds a CAC record (teardown must release it)
	local      bool       // granted by the pod delegate (teardown goes there)
	retryAfter units.Time // shed-reject drain hint for the next backoff
	stopAt     units.Time
	interval   units.Time
	timer      sim.Handle  // pending response-timeout or retry-backoff event
	tick       sim.Handler // emitData for this session, bound at activation
}

// maxBackoffShift caps the exponential retry backoff at base << 16; a
// larger MaxRetries must not shift the base into overflow (or into delays
// longer than any simulation).
const maxBackoffShift = 16

// backoffFor returns the capped exponential backoff before retry attempt
// (attempt >= 1): base doubled per prior attempt, clamped at
// base << maxBackoffShift.
func backoffFor(base units.Time, attempt int) units.Time {
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	return base << uint(shift)
}

// ClientConfig wires one Client into its host's shard.
type ClientConfig struct {
	Host  *hostif.Host
	Eng   *sim.Engine // the engine of the shard owning Host
	Rng   *xrand.Rand // private stream, split per host by the network
	Cfg   Config      // defaulted and validated
	Hosts int
	Cnt   *Counters // the owning shard's counter instance
	// RouteBE assigns a fixed best-effort route (admission.RouteBestEffort;
	// reads only immutable topology, so clients on any shard may call it).
	RouteBE func(src, dst int, key uint64) []int

	// Delegated control plane wiring (zero values = centralised mode).
	//
	// PodPrimary and PodStandby are the pod's delegate CAC hosts (-1 =
	// none; the client signals the root). A delegate host's own client
	// always signals the root.
	PodPrimary, PodStandby int
	// PodPeers lists the same-pod hosts this client may pick as local
	// destinations (ascending, excluding itself).
	PodPeers []int
}

// Client generates session arrivals at one host and drives each session
// through the setup / data / teardown lifecycle. All its work happens in
// events on the owning host's engine.
type Client struct {
	c        ClientConfig
	id       int
	totalW   float64
	sessions map[uint64]*cSession
	seq      uint32
	// target is the host new signalling goes to: the pod primary, the
	// promoted standby after an OpRetarget, or -1 for the root manager.
	target int
	tick   sim.Handler // arrive, bound at Start
}

// NewClient returns a client for cc.Host. Call Start to begin arrivals.
func NewClient(cc ClientConfig) *Client {
	var total float64
	for _, p := range cc.Cfg.Profiles {
		total += p.Weight
	}
	target := -1
	if cc.PodPrimary >= 0 {
		target = cc.PodPrimary
	}
	return &Client{
		c:        cc,
		id:       cc.Host.ID(),
		totalW:   total,
		sessions: make(map[uint64]*cSession),
		target:   target,
	}
}

// HostID returns the client's host index.
func (c *Client) HostID() int { return c.id }

// ctlFlow returns the signalling flow towards the client's current CAC
// target.
func (c *Client) ctlFlow() packet.FlowID {
	switch {
	case c.target < 0:
		return SigUp(c.id)
	case c.target == c.c.PodPrimary:
		return SigPodUp(c.id)
	case c.target == c.c.PodStandby:
		return SigPodAltUp(c.id)
	default:
		return SigUp(c.id)
	}
}

// Name identifies the client in source listings.
func (c *Client) Name() string { return fmt.Sprintf("sessions@%d", c.id) }

// Start schedules the first session arrival.
func (c *Client) Start() {
	c.tick = sim.Func(c.arrive)
	c.scheduleArrival()
}

// inFlash reports whether t falls inside the flash-crowd window.
func (c *Client) inFlash(t units.Time) bool {
	f := &c.c.Cfg
	return f.FlashFactor > 1 && f.FlashLen > 0 && t >= f.FlashAt && t < f.FlashAt+f.FlashLen
}

// scheduleArrival draws the next exponential inter-arrival gap (shortened
// by FlashFactor inside the flash window) and schedules the arrival.
func (c *Client) scheduleArrival() {
	mean := float64(c.c.Cfg.InterArrival)
	if c.inFlash(c.c.Eng.Now()) {
		mean /= c.c.Cfg.FlashFactor
	}
	gap := units.Time(c.c.Rng.Exp(mean)) + 1
	c.c.Eng.Post(c.c.Eng.Now()+gap, 0, sim.Payload{H: c.tick, Kind: sim.KindEmit})
}

// pickProfile draws one profile by weight.
func (c *Client) pickProfile() Profile {
	r := c.c.Rng.Float64() * c.totalW
	for _, p := range c.c.Cfg.Profiles {
		if r < p.Weight {
			return p
		}
		r -= p.Weight
	}
	return c.c.Cfg.Profiles[len(c.c.Cfg.Profiles)-1]
}

// arrive creates a new session and sends its first Setup.
func (c *Client) arrive() {
	c.scheduleArrival()
	c.seq++
	if c.seq == 0 || int(c.seq) >= maxSessionsPerHost {
		panic(fmt.Sprintf("session: host %d exhausted its per-host session id space", c.id))
	}
	prof := c.pickProfile()
	var dst int
	if lf := c.c.Cfg.LocalFrac; lf > 0 && len(c.c.PodPeers) > 0 && c.c.Rng.Float64() < lf {
		// Locality bias: pick a same-pod destination. Gated on LocalFrac
		// so the zero value draws exactly the historical random sequence.
		dst = c.c.PodPeers[c.c.Rng.Intn(len(c.c.PodPeers))]
	} else {
		dst = c.c.Rng.Intn(c.c.Hosts - 1)
		if dst >= c.id {
			dst++
		}
	}
	holdMean := c.c.Cfg.HoldMean
	if prof.HoldMean > 0 {
		holdMean = prof.HoldMean
	}
	s := &cSession{
		id:         sessionID(c.id, c.seq),
		dst:        dst,
		class:      prof.Class,
		bw:         prof.BW,
		msgSize:    prof.MsgSize,
		hold:       units.Time(c.c.Rng.Exp(float64(holdMean))) + 1,
		flowID:     DataFlowID(c.id, c.seq),
		firstSetup: c.c.Eng.Now(),
	}
	c.sessions[s.id] = s
	c.c.Cnt.Started++
	c.sendSetup(s)
}

// sendSetup emits one in-band Setup message towards the current CAC
// target and arms the response timer.
func (c *Client) sendSetup(s *cSession) {
	c.c.Cnt.SetupsSent++
	c.c.Host.SubmitCtl(c.ctlFlow(), c.c.Cfg.SigMsgSize, &Msg{
		Op: OpSetup, Session: s.id, Attempt: s.attempt,
		Src: c.id, Dst: s.dst, BW: s.bw, Class: s.class,
	})
	s.timer = c.c.Eng.After(c.c.Cfg.RespTimeout, func() {
		if s.state != stSignalling {
			return
		}
		c.c.Cnt.Timeouts++
		c.retryOrDowngrade(s)
	})
}

// cancelTimer drops any pending response/backoff event of s.
func (c *Client) cancelTimer(s *cSession) {
	if s.timer.Pending() {
		c.c.Eng.Cancel(s.timer)
	}
}

// retryOrDowngrade advances the retry policy after a reject or timeout:
// capped exponential backoff (backoffFor) up to MaxRetries, then the
// session gives up its reservation request and runs best effort. A
// shedding CAC's RetryAfter hint stretches the wait when it is longer than
// the backoff — retrying into a still-draining control queue is pointless.
func (c *Client) retryOrDowngrade(s *cSession) {
	s.attempt++
	if s.attempt > c.c.Cfg.MaxRetries {
		c.downgrade(s)
		return
	}
	backoff := backoffFor(c.c.Cfg.RetryBackoff, s.attempt)
	if hint := s.retryAfter; hint > backoff {
		// Clamp to the worst drain time the queue model can produce, so
		// the liveness bound stays provable.
		if max := units.Time(c.c.Cfg.CtlQueueCap+1) * c.c.Cfg.CtlService; hint > max {
			hint = max
		}
		if hint > backoff {
			backoff = hint
		}
	}
	s.retryAfter = 0
	s.timer = c.c.Eng.After(backoff, func() {
		if s.state != stSignalling {
			return // a late Grant won the race against this retry
		}
		c.c.Cnt.Retries++
		c.sendSetup(s)
	})
}

// downgrade starts the session as best effort on a hashed fixed route,
// without a CAC record.
func (c *Client) downgrade(s *cSession) {
	c.c.Cnt.Downgraded++
	c.c.Host.AddFlow(&hostif.Flow{
		ID: s.flowID, Class: packet.BestEffort, Src: c.id, Dst: s.dst,
		Route: c.c.RouteBE(c.id, s.dst, uint64(s.flowID)),
		Mode:  hostif.ByBandwidth, BW: s.bw,
	})
	s.granted = false
	c.activate(s)
}

// HandleCtl processes control-plane messages delivered to this host
// (wired as the host's SetCtlHandler).
func (c *Client) HandleCtl(p *packet.Packet) {
	m, ok := p.Ctl.(*Msg)
	if !ok {
		panic(fmt.Sprintf("session: host %d received foreign control payload %T", c.id, p.Ctl))
	}
	c.handleMsg(m)
}

// handleMsg processes one client-bound control message (from the fabric
// via HandleCtl, or zero-hop from a co-located delegate CAC).
func (c *Client) handleMsg(m *Msg) {
	if m.Op == OpRetarget {
		// Not session-scoped: the root redirects future signalling after a
		// delegate failover (or reclaims the pod itself, Target -1).
		c.c.Cnt.Retargets++
		c.target = m.Target
		return
	}
	s := c.sessions[m.Session]
	if s == nil {
		return // reply for a session that already finished
	}
	switch m.Op {
	case OpGrant:
		if s.state != stSignalling {
			return // duplicate grant after a retried Setup
		}
		c.cancelTimer(s)
		c.c.Cnt.Granted++
		lat := c.c.Eng.Now() - s.firstSetup
		c.c.Cnt.SetupLatency.Add(lat)
		c.c.Cnt.SetupLatHist.Add(lat)
		// Granted sessions carry a CAC reservation of s.bw, so the ingress
		// policer enforces exactly what was admitted. Downgraded sessions
		// stay unpoliced: they never reserved anything.
		c.c.Host.AddFlow(&hostif.Flow{
			ID: s.flowID, Class: s.class, Src: c.id, Dst: s.dst,
			Route: m.Route, Mode: hostif.ByBandwidth, BW: s.bw,
			Policed: true,
		})
		s.granted = true
		s.local = m.Local
		c.activate(s)
	case OpReject:
		if s.state != stSignalling {
			return
		}
		c.cancelTimer(s)
		c.c.Cnt.RejectsSeen++
		if m.RetryAfter > 0 {
			s.retryAfter = m.RetryAfter
		}
		c.retryOrDowngrade(s)
	case OpRevoke:
		if s.state != stActive || !s.granted {
			// The revoke raced our setup handshake; if the manager dropped
			// the record, the eventual teardown is counted stale there.
			return
		}
		f := c.c.Host.Flow(s.flowID)
		if m.DownAt > 0 && m.Route != nil {
			// Switch/port-failure repair: the service interruption ran
			// from the fault instant to this in-band route delivery.
			c.c.Cnt.RepairLatHist.Add(c.c.Eng.Now() - m.DownAt)
		}
		if m.Downgrade {
			// Reservation gone: continue best effort. The CAC already
			// dropped its record, so no teardown Release later. After a
			// switch failure the manager encloses a repaired route; with
			// none (derate revoke, or partitioned pair) fall back to the
			// hashed fixed route and let the fabric account the drops.
			f.Class = packet.BestEffort
			if m.Route != nil {
				f.Route = m.Route
			} else {
				f.Route = c.c.RouteBE(c.id, s.dst, uint64(s.flowID))
			}
			s.granted = false
		} else {
			// Re-admitted elsewhere: switch to the fresh route slice.
			// Already-staged packets keep the old slice, which stays valid
			// for their in-flight lifetime.
			f.Route = m.Route
		}
	}
}

// activate starts CBR data emission for the session's hold time.
func (c *Client) activate(s *cSession) {
	s.state = stActive
	s.stopAt = c.c.Eng.Now() + s.hold
	s.interval = s.bw.TxTime(s.msgSize + packet.HeaderSize)
	if s.interval < 1 {
		s.interval = 1
	}
	s.tick = sim.Func(func() { c.emitData(s) })
	c.emitData(s)
}

// emitData sends one data message and re-arms itself until the hold time
// expires.
func (c *Client) emitData(s *cSession) {
	if s.state != stActive {
		return
	}
	if c.c.Eng.Now() >= s.stopAt {
		c.finish(s)
		return
	}
	c.c.Host.SubmitMessage(s.flowID, s.msgSize)
	c.c.Eng.Post(c.c.Eng.Now()+s.interval, 0, sim.Payload{H: s.tick, Kind: sim.KindEmit})
}

// finish ends the session, sending an in-band Teardown when a CAC record
// must be released.
func (c *Client) finish(s *cSession) {
	s.state = stDone
	delete(c.sessions, s.id)
	c.c.Cnt.Finished++
	if s.granted {
		// Release where the grant lives: the pod CAC for local grants (the
		// promoted standby holds the replica after a failover), the root
		// otherwise. A local grant whose pod fell back to the root lands
		// there as a stale teardown — the failed delegate's ledger died
		// with it.
		flow := SigUp(c.id)
		if s.local && c.target >= 0 {
			flow = c.ctlFlow()
		}
		c.c.Cnt.TeardownsSent++
		c.c.Host.SubmitCtl(flow, c.c.Cfg.SigMsgSize, &Msg{
			Op: OpTeardown, Session: s.id, Src: c.id, Dst: s.dst,
		})
	}
}

// OldestPending returns the first-setup time of the oldest session still
// in the signalling state. The liveness watchdog calls it after the run:
// any pending setup older than Config.LivenessBound means a response or
// backoff timer was lost, which must not happen even when the fabric
// discards every control packet.
func (c *Client) OldestPending() (units.Time, bool) {
	var oldest units.Time
	found := false
	for _, s := range c.sessions {
		if s.state == stSignalling && (!found || s.firstSetup < oldest) {
			oldest, found = s.firstSetup, true
		}
	}
	return oldest, found
}
