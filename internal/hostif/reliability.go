// End-to-end reliability layer (fault recovery).
//
// The paper's fabric is lossless, so the architecture needs no
// retransmission. Under the fault model of internal/faults packets can be
// corrupted in flight (detected by the destination NIC's CRC check) or
// lost outright to a link flap, and deadlines stay meaningful only if the
// source recovers. The recovery protocol implemented here:
//
//   - The source NIC keeps every injected packet in a retransmission
//     tracker, keyed by the per-flow sequence number already carried in
//     the wire header, until the destination acknowledges it.
//   - The destination drops corrupted copies (CRC) and NAKs them; it also
//     NAKs sequence gaps revealed by later arrivals (the network delivers
//     each flow in order, so a gap means an upstream loss). Duplicates —
//     retransmit copies racing a late original or a stale timeout — are
//     dropped and re-acknowledged.
//   - Unacknowledged packets retransmit on a timeout with exponential
//     backoff. Each retransmit copy is re-stamped through the flow's §3.1
//     virtual-clock deadline rule, so a recovering flow re-enters the EDF
//     schedule honestly instead of competing with its original deadline.
//   - After DemoteAfter retries a regulated packet is demoted to the
//     best-effort virtual channel: a flow crossing a persistently faulty
//     link degrades to best-effort service instead of wedging the
//     regulated VC with hopeless retransmissions.
//
// Acknowledgements and NAKs travel out-of-band (like credits) with a
// configurable modelled delay; they are never lost.

package hostif

import (
	"fmt"
	"math"

	"deadlineqos/internal/packet"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
)

// Reliability configures the end-to-end retransmission layer of a host
// NIC. The zero value disables it (the paper's lossless baseline).
type Reliability struct {
	// Enabled switches the layer on.
	Enabled bool
	// Timeout is the base retransmission timeout (default 500 µs).
	Timeout units.Time
	// Backoff multiplies the timeout per retry (default 2).
	Backoff float64
	// MaxTimeout caps the backed-off timeout (default 16 ms).
	MaxTimeout units.Time
	// DemoteAfter is the retry count after which a packet is demoted to
	// the best-effort VC (default 3; negative disables demotion).
	DemoteAfter int
	// AckDelay is the modelled latency of the out-of-band ack/nak
	// channel (default 2 µs). The network wiring applies it.
	AckDelay units.Time
}

// WithDefaults fills unset fields with the defaults above.
func (r Reliability) WithDefaults() Reliability {
	if r.Timeout <= 0 {
		r.Timeout = 500 * units.Microsecond
	}
	if r.Backoff < 1 {
		r.Backoff = 2
	}
	if r.MaxTimeout <= 0 {
		r.MaxTimeout = 16 * units.Millisecond
	}
	if r.DemoteAfter == 0 {
		r.DemoteAfter = 3
	}
	if r.AckDelay <= 0 {
		r.AckDelay = 2 * units.Microsecond
	}
	return r
}

// Validate rejects nonsensical explicit settings. Zero-valued fields are
// always valid — WithDefaults fills them.
func (r Reliability) Validate() error {
	if !r.Enabled {
		return nil
	}
	if r.Timeout < 0 {
		return fmt.Errorf("hostif: reliability timeout %v is negative", r.Timeout)
	}
	if r.Backoff != 0 && r.Backoff < 1 {
		return fmt.Errorf("hostif: reliability backoff %v < 1 would shrink timeouts", r.Backoff)
	}
	if r.MaxTimeout < 0 {
		return fmt.Errorf("hostif: reliability max timeout %v is negative", r.MaxTimeout)
	}
	if r.MaxTimeout > 0 && r.Timeout > 0 && r.MaxTimeout < r.Timeout {
		return fmt.Errorf("hostif: reliability max timeout %v below base timeout %v", r.MaxTimeout, r.Timeout)
	}
	if r.AckDelay < 0 {
		return fmt.Errorf("hostif: reliability ack delay %v is negative", r.AckDelay)
	}
	return nil
}

// rto returns the backed-off timeout for the given retry count.
func (r Reliability) rto(retries int) units.Time {
	t := float64(r.Timeout) * math.Pow(r.Backoff, float64(retries))
	if t > float64(r.MaxTimeout) {
		return r.MaxTimeout
	}
	return units.Time(t)
}

// RelCounters are the recovery-layer counters of one host.
type RelCounters struct {
	Acked         uint64 // unique packets confirmed delivered
	Timeouts      uint64 // retransmissions triggered by timer expiry
	Naks          uint64 // NAKs received from destinations
	Retransmitted uint64 // retransmit copies queued
	Demoted       uint64 // packets demoted to the best-effort VC
	RxCorrupt     uint64 // corrupted copies dropped by this host's CRC check
	RxDup         uint64 // duplicate copies dropped by this host
}

// Add accumulates other into c (run-level aggregation).
func (c *RelCounters) Add(other RelCounters) {
	c.Acked += other.Acked
	c.Timeouts += other.Timeouts
	c.Naks += other.Naks
	c.Retransmitted += other.Retransmitted
	c.Demoted += other.Demoted
	c.RxCorrupt += other.RxCorrupt
	c.RxDup += other.RxDup
}

// relKey identifies a unique packet end-to-end: retransmit copies carry
// fresh packet IDs but keep the (flow, seq) identity.
type relKey struct {
	flow packet.FlowID
	seq  uint64
}

// relEntry tracks one injected, not-yet-acknowledged packet at its source.
type relEntry struct {
	pkt     packet.Packet // snapshot of the last transmitted copy
	retries int
	demoted bool
	// queued is true while a retransmit copy sits in the injection queue;
	// it suppresses duplicate retransmissions from NAK/timeout races.
	queued bool
	timer  sim.Handle
}

// relState is the sender-side tracker of one host.
type relState struct {
	entries map[relKey]*relEntry
}

// trackInjected registers (or re-arms) tracking for a packet that just
// entered the network. The entry stores a value copy taken at injection —
// never a reference to the live packet, which the destination (possibly
// on another parsim shard) mutates in flight.
func (h *Host) trackInjected(p *packet.Packet) {
	key := relKey{p.Flow, p.Seq}
	e := h.rel.entries[key]
	if e == nil {
		e = &relEntry{}
		h.rel.entries[key] = e
	}
	e.pkt = *p
	e.queued = false
	rto := h.cfg.Reliability.rto(e.retries)
	e.timer = h.cfg.Eng.Post(h.cfg.Eng.Now()+rto, 0, sim.Payload{H: h, Kind: sim.KindRetx, A: uint64(key.flow), B: key.seq})
}

// onRetxTimeout fires when a tracked packet's ack did not arrive in time.
func (h *Host) onRetxTimeout(key relKey) {
	e := h.rel.entries[key]
	if e == nil || e.queued {
		return
	}
	h.relCnt.Timeouts++
	h.retransmit(e)
}

// AckEvent returns the typed event that, fired on this host's engine,
// hands it the receiver report handleAck(flow, seq, ok). The network's
// out-of-band report path posts or relays it after the modelled delay.
func (h *Host) AckEvent(flow packet.FlowID, seq uint64, ok bool) sim.Payload {
	a := uint64(flow)
	if ok {
		a |= 1 << 32 // above every 32-bit FlowID
	}
	return sim.Payload{H: h, Kind: sim.KindAck, A: a, B: seq}
}

// handleAck processes an out-of-band receiver report for (flow, seq):
// ok acknowledges delivery, !ok is a NAK requesting retransmission.
func (h *Host) handleAck(flow packet.FlowID, seq uint64, ok bool) {
	if h.rel == nil {
		return
	}
	key := relKey{flow, seq}
	e := h.rel.entries[key]
	if e == nil {
		return // already acknowledged (stale duplicate report)
	}
	if ok {
		if e.timer.Pending() {
			h.cfg.Eng.Cancel(e.timer)
		}
		delete(h.rel.entries, key)
		h.relCnt.Acked++
		return
	}
	h.relCnt.Naks++
	if !e.queued {
		if e.timer.Pending() {
			h.cfg.Eng.Cancel(e.timer)
		}
		h.retransmit(e)
	}
}

// retransmit queues a fresh copy of a tracked packet, re-stamped through
// the flow's deadline calculus and demoted to best-effort after too many
// retries.
func (h *Host) retransmit(e *relEntry) {
	e.retries++
	h.relCnt.Retransmitted++

	f := h.flows[e.pkt.Flow]
	cp := e.pkt
	cp.ID = h.cfg.IDs.NextPacket()
	cp.Hop = 0
	cp.Corrupted = false
	cp.Eligible = 0
	cp.InjectedAt = 0

	// Re-stamp per the §3.1 virtual-clock rule: the retransmission is new
	// work for the flow, so its deadline advances from the copy's previous
	// deadline (or now, if that has passed) by the flow's per-packet
	// increment. The flow's virtual clock follows, keeping the source's
	// deadline sequence monotone.
	now := h.cfg.Clock.Now()
	base := cp.Deadline
	if now > base {
		base = now
	}
	switch f.Mode {
	case ByBandwidth:
		cp.Deadline = base + f.BW.TxTime(cp.Size)
	case FrameLatency:
		cp.Deadline = base + f.Target/units.Time(cp.FrameParts)
	}
	if cp.Deadline > f.lastDeadline {
		f.lastDeadline = cp.Deadline
	}

	if da := h.cfg.Reliability.DemoteAfter; da > 0 && e.retries >= da && !e.demoted {
		e.demoted = true
		h.relCnt.Demoted++
		if h.cfg.Tracer != nil && cp.Sampled {
			h.traceEvt(trace.KindDemoted, &cp)
		}
		if h.cfg.Hooks.Demoted != nil {
			h.cfg.Hooks.Demoted(&cp, h.cfg.Eng.Now())
		}
	}
	if e.demoted {
		cp.VC = h.cfg.Arch.VCFor(packet.BestEffort)
	}
	e.pkt = cp
	e.queued = true

	pc := new(packet.Packet)
	*pc = cp
	if h.cfg.Tracer != nil && pc.Sampled {
		// The copy inherits the original's sampling decision through the
		// Sampled bit in the tracked snapshot.
		h.traceEvt(trace.KindRetransmit, pc)
	}
	if h.cfg.Hooks.Retransmitted != nil {
		h.cfg.Hooks.Retransmitted(pc, h.cfg.Eng.Now())
	}
	h.ready[pc.VC].Push(pc)
	h.tryInject()
}

// Outstanding returns the number of injected packets not yet acknowledged
// (0 when the reliability layer is disabled).
func (h *Host) Outstanding() int {
	if h.rel == nil {
		return 0
	}
	return len(h.rel.entries)
}

// RelCounters returns the host's recovery-layer counters.
func (h *Host) RelCounters() RelCounters { return h.relCnt }

// --- receive-side sequence tracking --------------------------------------

// rxFlow tracks which sequence numbers of one incoming flow have been
// delivered, for duplicate suppression and gap NAKs. All seqs below next
// are delivered; have holds the sparse set at or above it.
type rxFlow struct {
	next  uint64
	have  map[uint64]struct{}
	naked map[uint64]struct{}
	// scanned is the end of the furthest gap scan so far: every seq in
	// [next, scanned) is in have or naked, because a seq leaves naked only
	// when it arrives (mark), so a later scan starts at max(next, scanned).
	scanned uint64
}

func newRxFlow() *rxFlow {
	return &rxFlow{have: make(map[uint64]struct{}), naked: make(map[uint64]struct{})}
}

// seen reports whether seq was already delivered.
func (r *rxFlow) seen(seq uint64) bool {
	if seq < r.next {
		return true
	}
	_, ok := r.have[seq]
	return ok
}

// mark records seq as delivered and advances the contiguous frontier.
func (r *rxFlow) mark(seq uint64) {
	r.have[seq] = struct{}{}
	delete(r.naked, seq)
	for {
		if _, ok := r.have[r.next]; !ok {
			break
		}
		delete(r.have, r.next)
		r.next++
	}
}

// gaps returns the missing sequence numbers below seq that have not been
// NAKed yet, marking them NAKed. Call after mark(seq).
func (r *rxFlow) gaps(seq uint64) []uint64 {
	var out []uint64
	for s := max(r.next, r.scanned); s < seq; s++ {
		if _, got := r.have[s]; got {
			continue
		}
		if _, nd := r.naked[s]; nd {
			continue
		}
		r.naked[s] = struct{}{}
		out = append(out, s)
	}
	r.scanned = max(r.scanned, seq)
	return out
}

// rxFlowOf returns (creating on demand) the tracker for flow id.
func (h *Host) rxFlowOf(id packet.FlowID) *rxFlow {
	r := h.rx[id]
	if r == nil {
		r = newRxFlow()
		h.rx[id] = r
	}
	return r
}
