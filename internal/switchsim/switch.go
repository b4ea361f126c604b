// Package switchsim models the interconnect switches: combined input and
// output buffering (CIOQ), virtual output queuing at the inputs, a crossbar
// connecting them, and per-architecture scheduling (§4.1).
//
// Data path of a packet through a switch:
//
//	upstream link ──► input port VOQ (per VC, per output) ──► crossbar
//	              ──► output buffer (per VC) ──► downstream link
//
// The input VOQs remove head-of-line blocking across outputs; within one
// (input, VC, output) queue the architecture's buffer discipline applies
// (FIFO, heap, or the take-over structure — see internal/pqueue). Credits
// for the upstream link are returned when a packet's crossbar transfer
// completes, i.e. when its input buffer space is truly free.
//
// Scheduling, per architecture:
//
//   - Traditional 2 VCs / 4 VCs: a PCI-AS-style weighted table picks the VC
//     at both the crossbar and the link; round-robin picks the input within
//     a VC. The 4-VC variant gives every traffic class its own weighted VC.
//   - EDF architectures (Ideal / Simple / Advanced): the regulated VC has
//     absolute priority; within a VC the arbiter grants the input whose
//     queue head carries the earliest deadline. This is the paper's core
//     idea — the only thing a switch ever inspects is the deadline in each
//     queue-head's header (§3.2).
//
// Per the appendix's flow-control rule, credit checks are made only against
// the packet the dequeue discipline designates, never against another
// stored packet that would happen to fit.
package switchsim

import (
	"fmt"
	"math/bits"

	"deadlineqos/internal/arbiter"
	"deadlineqos/internal/arch"
	"deadlineqos/internal/link"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/policy"
	"deadlineqos/internal/pqueue"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
)

// Config parameterises one switch.
type Config struct {
	Eng   *sim.Engine
	Clock packet.Clock // node-local clock (may be skewed)
	ID    int
	Radix int
	Arch  arch.Arch
	// BufPerVC is the buffer capacity per (port, VC) pool, at inputs and
	// outputs alike (8 KB in the paper).
	BufPerVC units.Size
	// XbarBW is the per-port crossbar bandwidth (defaults to link rate,
	// i.e. speedup 1, when zero).
	XbarBW units.Bandwidth
	// TrackOrderErrors enables the measurement oracle in every buffer.
	TrackOrderErrors bool
	// VCTable overrides the Traditional architecture's weighted
	// arbitration table (nil = arbiter.DefaultVCTable, 3:1 for the
	// regulated VC). Ignored by the deadline-aware architectures, whose
	// regulated VC has absolute priority.
	VCTable []packet.VC
	// Tracer records lifecycle events of sampled packets (nil = tracing
	// off). When set, buffer observers are installed so take-overs and
	// order errors surface as per-packet events.
	Tracer *trace.Tracer
	// OnPktDrop observes every packet the switch discards when a
	// SwitchDown fault kills it (queued, output-buffered, and
	// mid-crossbar packets alike). The network wires it to the
	// conservation accounting; nil means drops are silently lost, so any
	// run with switch faults must set it.
	OnPktDrop func(p *packet.Packet)
	// Policy selects the scheduling policy whose Arbiter makes this
	// switch's crossbar and link grant decisions. Nil means
	// policy.Default, the seed behaviour.
	Policy policy.Policy
	// GuardBytes enables the regulated-VC occupancy guard: per output
	// port, an input whose served regulated bytes lead the
	// least-served backlogged input by more than GuardBytes is held
	// back from crossbar arbitration for that VC until the others
	// catch up. This bounds how far a babbling NIC — legitimate
	// deadlines or not — can starve other inputs' regulated traffic.
	// Zero disables the guard (the seed behaviour).
	GuardBytes units.Size
	// GuardInputs marks which input ports the guard covers (nil = all).
	// The network marks only host-facing ports: per-input byte fairness
	// is per-host fairness at the edge, whereas a transit uplink
	// legitimately aggregates many hosts' flows and must not be
	// equalised against a single babbler.
	GuardInputs []bool
}

// Stats are the instrumentation counters of one switch.
type Stats struct {
	XbarTransfers uint64
	LinkSends     uint64
	OrderErrors   uint64 // dequeues that violated global deadline order
	TakeOvers     uint64 // packets diverted to take-over queues
	Enqueued      uint64 // packets pushed into any buffer; all but Queued were popped
}

// Switch is one simulated switch.
type Switch struct {
	cfg Config
	in  []*inputPort
	out []*outputPort

	xbarTransfers uint64
	linkSends     uint64
	inXbar        int  // packets mid-crossbar (popped from a VOQ, not yet in an output buffer)
	down          bool // a SwitchDown fault killed the switch
	dropped       uint64
}

type inputPort struct {
	sw  *Switch
	idx int
	// voq[vc][output] holds packets for that output in the architecture's
	// discipline. All queues of one VC share the port's per-VC pool.
	voq      [packet.NumVCs][]pqueue.Buffer
	pool     [packet.NumVCs]units.Size
	busy     bool
	upstream link.CreditReturner
	// waiting holds the outputs this port has a packet for on any VC.
	waiting bitset

	// The (single) crossbar transfer in flight from this port, tracked so
	// Audit can reconcile the pool and SetDown knows what finishTransfer
	// will still free. Valid only while busy.
	xferVC   packet.VC
	xferSize units.Size
}

type outputPort struct {
	sw   *Switch
	idx  int
	buf  [packet.NumVCs]pqueue.Buffer
	busy bool
	down *link.Link

	arb    policy.Arbiter            // per-port grant decisions (crossbar + link)
	sendOK func(*packet.Packet) bool // down.CanSend, bound once at connect

	// Arbitration scratch, refilled on every decision and handed to arb:
	// per-VC crossbar candidates (capacity Radix each) and the per-VC
	// output buffer heads. Kept here so a decision allocates nothing.
	cands [packet.NumVCs][]arbiter.Candidate
	heads [packet.NumVCs]*packet.Packet

	// served[vc][input] is the cumulative bytes input has pushed through
	// this output on a guarded VC, the occupancy guard's fairness state.
	// Allocated only when the guard is on.
	served [packet.NumVCs][]units.Size

	// backlog[vc] holds the inputs whose VOQ for this output on vc is
	// non-empty: the only inputs arbitration has to look at.
	backlog [packet.NumVCs]bitset
}

// bitset is a set of port indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (i & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// next returns the smallest member at or above i, or -1. Loops written
// "for i := b.next(0); i >= 0; i = b.next(i + 1)" visit members in
// ascending order and see every change the body makes to later bits.
func (b bitset) next(i int) int {
	w := i >> 6
	if w >= len(b) {
		return -1
	}
	if x := b[w] >> (i & 63); x != 0 {
		return i + bits.TrailingZeros64(x)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b[w])
		}
	}
	return -1
}

// New builds a switch. Ports must then be wired with ConnectUpstream /
// ConnectDownstream before traffic arrives.
func New(cfg Config) *Switch {
	if cfg.XbarBW == 0 {
		cfg.XbarBW = 1 // reference link rate, speedup 1
	}
	pol := cfg.Policy
	if pol == nil {
		pol = policy.Default()
	}
	s := &Switch{cfg: cfg}
	for i := 0; i < cfg.Radix; i++ {
		ip := &inputPort{sw: s, idx: i, waiting: newBitset(cfg.Radix)}
		for vc := 0; vc < packet.NumVCs; vc++ {
			ip.voq[vc] = make([]pqueue.Buffer, cfg.Radix)
			for o := 0; o < cfg.Radix; o++ {
				// Each VOQ may transiently hold up to the whole pool;
				// the pool accounting below enforces the shared limit.
				ip.voq[vc][o] = pqueue.New(cfg.Arch.Discipline(packet.VC(vc)), cfg.BufPerVC, cfg.TrackOrderErrors)
				if cfg.Tracer != nil {
					ip.voq[vc][o].SetObserver(&bufObserver{sw: s, port: i, out: o})
				}
			}
		}
		s.in = append(s.in, ip)

		op := &outputPort{sw: s, idx: i}
		for vc := 0; vc < packet.NumVCs; vc++ {
			op.cands[vc] = make([]arbiter.Candidate, 0, cfg.Radix)
			op.backlog[vc] = newBitset(cfg.Radix)
			op.buf[vc] = pqueue.New(cfg.Arch.Discipline(packet.VC(vc)), cfg.BufPerVC, cfg.TrackOrderErrors)
			if cfg.Tracer != nil {
				op.buf[vc].SetObserver(&bufObserver{sw: s, port: i, out: -1})
			}
		}
		op.arb = pol.NewArbiter(policy.ArbiterConfig{Arch: cfg.Arch, Radix: cfg.Radix, VCTable: cfg.VCTable})
		if cfg.GuardBytes > 0 {
			for vc := 0; vc < packet.NumVCs; vc++ {
				if s.guarded(packet.VC(vc)) {
					op.served[vc] = make([]units.Size, cfg.Radix)
				}
			}
		}
		s.out = append(s.out, op)
	}
	return s
}

// ID returns the switch's index in the topology.
func (s *Switch) ID() int { return s.cfg.ID }

// ConnectUpstream registers the credit-return path of the link feeding
// input port p (the link itself, or a parsim cross-shard portal), used to
// return credits as the input buffer drains.
func (s *Switch) ConnectUpstream(p int, cr link.CreditReturner) { s.in[p].upstream = cr }

// ConnectDownstream registers the link leaving output port p and hooks its
// readiness callback to this port's transmission scheduler.
func (s *Switch) ConnectDownstream(p int, l *link.Link) {
	s.out[p].down = l
	s.out[p].sendOK = func(pkt *packet.Packet) bool { return l.CanSend(pkt) }
	l.OnReady = func() { s.tryLinkTx(p) }
}

// InputReceiver returns the link.Receiver for input port p.
func (s *Switch) InputReceiver(p int) link.Receiver { return &portReceiver{s, p} }

type portReceiver struct {
	sw   *Switch
	port int
}

// Receive accepts a packet arriving on the input port: the deadline is
// reconstructed from the TTD header against this switch's local clock
// (§3.3) and the packet joins the VOQ for its route's next output port.
func (r *portReceiver) Receive(p *packet.Packet) { r.sw.receive(r.port, p) }

// guarded reports whether the occupancy guard applies to vc: the
// regulated VC, plus the multimedia VC under Traditional 4 VCs (where
// the regulated classes span two channels).
func (s *Switch) guarded(vc packet.VC) bool {
	if s.cfg.GuardBytes <= 0 {
		return false
	}
	if s.cfg.Arch == arch.Traditional4VC {
		return vc <= 1
	}
	return vc == packet.VCRegulated
}

// guardedInput reports whether the occupancy guard covers input port i.
func (s *Switch) guardedInput(i int) bool {
	return s.cfg.GuardInputs == nil || s.cfg.GuardInputs[i]
}

func (s *Switch) receive(in int, p *packet.Packet) {
	if s.down {
		// Reachable when a flap's LinkUp restores a link into a still-dead
		// switch: the dead switch discards the arrival, returning the
		// credits the sender consumed (the packet never enters a pool).
		if up := s.in[in].upstream; up != nil {
			up.ReturnCredits(p.VC, p.Size)
		}
		s.drop(p, in, -1)
		return
	}
	p.UnpackTTD(s.cfg.Clock.Now())
	o := p.NextPort()
	p.Advance()
	if o < 0 || o >= s.cfg.Radix {
		panic(fmt.Sprintf("switch %d: packet %d routed to invalid port %d", s.cfg.ID, p.ID, o))
	}
	vc := p.VC
	ip := s.in[in]
	if ip.pool[vc]+p.Size > s.cfg.BufPerVC {
		panic(fmt.Sprintf("switch %d input %d: %v pool overflow (%v + %v > %v): upstream violated flow control",
			s.cfg.ID, in, packet.VC(vc), ip.pool[vc], p.Size, s.cfg.BufPerVC))
	}
	ip.pool[vc] += p.Size
	if s.cfg.Tracer != nil && p.Sampled {
		s.traceEvt(trace.KindVOQEnqueue, p, in, o)
	}
	// An input (re)joining the contenders for a guarded VC is lifted to
	// within GuardBytes of the most-served input, so a long-idle port
	// neither freezes the others nor inherits an unbounded backlog of
	// artificial credit.
	if s.guarded(vc) && s.guardedInput(in) && ip.voq[vc][o].Len() == 0 {
		served := s.out[o].served[vc]
		max := served[0]
		for _, v := range served[1:] {
			if v > max {
				max = v
			}
		}
		if floor := max - s.cfg.GuardBytes; served[in] < floor {
			served[in] = floor
		}
	}
	s.pushVOQ(ip, vc, o, p)
	s.tryXbar(o)
}

// pushVOQ queues p in ip's VOQ for output o on vc and records the backlog
// in both occupancy bitmaps.
func (s *Switch) pushVOQ(ip *inputPort, vc packet.VC, o int, p *packet.Packet) {
	ip.voq[vc][o].Push(p)
	s.out[o].backlog[vc].set(ip.idx)
	ip.waiting.set(o)
}

// popVOQ removes the head of ip's VOQ for output o on vc, clearing the
// occupancy bits the queue no longer justifies.
func (s *Switch) popVOQ(ip *inputPort, vc packet.VC, o int) *packet.Packet {
	q := ip.voq[vc][o]
	p := q.Pop()
	if q.Len() > 0 {
		return p
	}
	op := s.out[o]
	op.backlog[vc].clear(ip.idx)
	for v := range op.backlog {
		if op.backlog[v].has(ip.idx) {
			return p
		}
	}
	ip.waiting.clear(o)
	return p
}

// tryXbar attempts to start one crossbar transfer toward output o.
func (s *Switch) tryXbar(o int) {
	op := s.out[o]
	if op.busy {
		return
	}
	// Gather per-VC candidates: head packets of non-busy inputs that fit
	// in the output buffer. On a guarded VC an input whose served bytes
	// lead the least-served backlogged input by more than GuardBytes is
	// withheld, so a babbling NIC cannot monopolise the regulated VC
	// while other inputs hold traffic for this output.
	cands := &op.cands
	for vc := 0; vc < packet.NumVCs; vc++ {
		cands[vc] = cands[vc][:0]
		backlog := op.backlog[vc]
		free := op.buf[vc].Free()
		ceiling := units.Size(-1)
		if s.guarded(packet.VC(vc)) {
			first := true
			var min units.Size
			for i := backlog.next(0); i >= 0; i = backlog.next(i + 1) {
				if !s.guardedInput(i) {
					continue
				}
				if v := op.served[vc][i]; first || v < min {
					min, first = v, false
				}
			}
			if !first {
				ceiling = min + s.cfg.GuardBytes
			}
		}
		for i := backlog.next(0); i >= 0; i = backlog.next(i + 1) {
			ip := s.in[i]
			if ip.busy {
				continue
			}
			if ceiling >= 0 && s.guardedInput(i) && op.served[vc][i] > ceiling {
				continue
			}
			if h := ip.voq[vc][o].Head(); h.Size <= free {
				cands[vc] = append(cands[vc], arbiter.Candidate{Pkt: h, Source: i})
			}
		}
	}
	// The policy's two-level choice: VC first, then input within the VC
	// (the default policy applies the architecture's rule).
	vc, sel := op.arb.PickXbar(cands)
	if sel < 0 {
		return
	}
	s.startTransfer(s.in[cands[vc][sel].Source], op, packet.VC(vc))
}

// startTransfer moves the head of ip's VOQ for op through the crossbar.
func (s *Switch) startTransfer(ip *inputPort, op *outputPort, vc packet.VC) {
	p := s.popVOQ(ip, vc, op.idx)
	if s.cfg.Tracer != nil && p.Sampled {
		// The per-hop slack distribution of the deadline telemetry is fed
		// from exactly this event (trace.Tracer aggregates VOQ dequeues).
		s.traceEvt(trace.KindVOQDequeue, p, ip.idx, op.idx)
	}
	ip.busy = true
	ip.xferVC, ip.xferSize = vc, p.Size
	op.busy = true
	if s.guarded(vc) && s.guardedInput(ip.idx) {
		op.served[vc][ip.idx] += p.Size
	}
	s.xbarTransfers++
	s.inXbar++
	tx := s.cfg.XbarBW.TxTime(p.Size)
	s.cfg.Eng.Post(s.cfg.Eng.Now()+tx, 0, sim.Payload{H: s, Kind: sim.KindXbarFinish, Pkt: p, A: uint64(ip.idx), B: uint64(op.idx)})
}

// Fire implements sim.Handler for the switch's crossbar transfers: p
// finishes crossing from input port A to output port B.
func (s *Switch) Fire(kind sim.Kind, p *packet.Packet, a, b uint64) {
	if kind != sim.KindXbarFinish {
		panic(fmt.Sprintf("switch %d: unexpected event kind %d", s.cfg.ID, kind))
	}
	s.finishTransfer(s.in[a], s.out[b], p)
}

func (s *Switch) finishTransfer(ip *inputPort, op *outputPort, p *packet.Packet) {
	vc := ip.xferVC
	ip.busy = false
	op.busy = false
	s.inXbar--
	// The packet has fully left the input buffer: free the pool and give
	// the credits back upstream.
	ip.pool[vc] -= p.Size
	if ip.upstream != nil {
		ip.upstream.ReturnCredits(vc, p.Size)
	}
	if s.down {
		// The switch died mid-transfer: the pool and upstream credits are
		// already reconciled above, the packet itself is discarded.
		s.drop(p, ip.idx, op.idx)
		return
	}
	if s.cfg.Tracer != nil && p.Sampled {
		s.traceEvt(trace.KindOutputEnqueue, p, op.idx, -1)
	}
	op.buf[vc].Push(p)
	s.tryLinkTx(op.idx)
	s.tryXbar(op.idx)
	s.retryInput(ip)
}

// drop discards one packet under a SwitchDown fault, feeding the
// conservation accounting and the lifecycle trace.
func (s *Switch) drop(p *packet.Packet, port, out int) {
	s.dropped++
	if s.cfg.Tracer != nil && p.Sampled {
		s.traceEvt(trace.KindSwitchDrop, p, port, out)
	}
	if s.cfg.OnPktDrop != nil {
		s.cfg.OnPktDrop(p)
	}
}

// SetDown applies or clears a SwitchDown fault. Going down discards every
// queued packet — input VOQs (pool freed, upstream credits returned) and
// output buffers — in deterministic port/VC order; a transfer mid-crossbar
// is discarded when it completes (finishTransfer). The caller (the
// network's fault installer) is responsible for also downing every link
// attached to the switch in the same event. Returns whether the state
// changed.
func (s *Switch) SetDown(down bool) bool {
	if s.down == down {
		return false
	}
	s.down = down
	if !down {
		return true // buffers were drained on the way down; nothing to restore
	}
	for _, ip := range s.in {
		for vc := 0; vc < packet.NumVCs; vc++ {
			for o := 0; o < s.cfg.Radix; o++ {
				for ip.voq[vc][o].Len() > 0 {
					p := s.popVOQ(ip, packet.VC(vc), o)
					ip.pool[vc] -= p.Size
					if ip.upstream != nil {
						ip.upstream.ReturnCredits(packet.VC(vc), p.Size)
					}
					s.drop(p, ip.idx, o)
				}
			}
		}
	}
	for _, op := range s.out {
		for vc := 0; vc < packet.NumVCs; vc++ {
			for {
				p := op.buf[vc].Pop()
				if p == nil {
					break
				}
				s.drop(p, op.idx, -1)
			}
		}
	}
	return true
}

// Down reports whether the switch is currently killed by a SwitchDown
// fault.
func (s *Switch) Down() bool { return s.down }

// Dropped returns the number of packets discarded by SwitchDown faults.
func (s *Switch) Dropped() uint64 { return s.dropped }

// Audit verifies the switch's internal buffer accounting: every input
// port's per-VC pool must equal the bytes actually queued in its VOQs plus
// the in-flight crossbar transfer it still holds, and every occupancy bit
// arbitration reads must match its VOQs. The soak harness calls this after
// every epoch as the switch-level credit-leak check.
func (s *Switch) Audit() error {
	for _, ip := range s.in {
		var want [packet.NumVCs]units.Size
		for vc := 0; vc < packet.NumVCs; vc++ {
			for o := 0; o < s.cfg.Radix; o++ {
				want[vc] += ip.voq[vc][o].Bytes()
			}
		}
		if ip.busy {
			want[ip.xferVC] += ip.xferSize
		}
		for vc := 0; vc < packet.NumVCs; vc++ {
			if ip.pool[vc] != want[vc] {
				return fmt.Errorf("switch %d input %d vc %d: pool %v != queued+in-flight %v",
					s.cfg.ID, ip.idx, vc, ip.pool[vc], want[vc])
			}
			if ip.pool[vc] > s.cfg.BufPerVC {
				return fmt.Errorf("switch %d input %d vc %d: pool %v above capacity %v",
					s.cfg.ID, ip.idx, vc, ip.pool[vc], s.cfg.BufPerVC)
			}
		}
		for o, op := range s.out {
			waiting := false
			for vc := range op.backlog {
				n := ip.voq[vc][o].Len()
				waiting = waiting || n > 0
				if op.backlog[vc].has(ip.idx) != (n > 0) {
					return fmt.Errorf("switch %d input %d vc %d: backlog bit for output %d disagrees with its %d queued packets",
						s.cfg.ID, ip.idx, vc, o, n)
				}
			}
			if ip.waiting.has(o) != waiting {
				return fmt.Errorf("switch %d input %d: waiting bit for output %d disagrees with its VOQs", s.cfg.ID, ip.idx, o)
			}
		}
	}
	return nil
}

// retryInput re-arbitrates the outputs the freed input has traffic for,
// in port order.
func (s *Switch) retryInput(ip *inputPort) {
	for o := ip.waiting.next(0); o >= 0; o = ip.waiting.next(o + 1) {
		if !s.out[o].busy {
			s.tryXbar(o)
		}
	}
}

// tryLinkTx attempts to put one packet from output o's buffers on the wire.
func (s *Switch) tryLinkTx(o int) {
	op := s.out[o]
	l := op.down
	if l == nil || !l.Idle() {
		return
	}
	// The policy chooses the VC, honouring the appendix's rule: only the
	// discipline-designated head of each VC may be credit-checked.
	for vc := 0; vc < packet.NumVCs; vc++ {
		op.heads[vc] = op.buf[vc].Head()
	}
	vc := op.arb.PickLinkVC(&op.heads, op.sendOK)
	if vc < 0 {
		return
	}
	p := op.buf[vc].Pop()
	if s.cfg.Tracer != nil && p.Sampled {
		s.traceEvt(trace.KindLinkTx, p, o, -1)
	}
	// Stamp the TTD as of the moment the last byte leaves this switch, so
	// the next hop's reconstructed deadline carries no size-dependent
	// inflation (see link.TxTime).
	p.PackTTD(s.cfg.Clock.Now() + l.TxTime(p))
	s.linkSends++
	l.Send(p)
	// Output buffer space freed: the crossbar may now have room.
	s.tryXbar(o)
}

// Stats returns the switch's instrumentation counters, aggregating the
// order-error oracle across every buffer.
func (s *Switch) Stats() Stats {
	st := Stats{XbarTransfers: s.xbarTransfers, LinkSends: s.linkSends}
	count := func(b pqueue.Buffer) {
		st.Enqueued += b.Pushes()
		st.OrderErrors += b.OrderErrors()
		if tq, ok := b.(*pqueue.TakeOverQueue); ok {
			st.TakeOvers += tq.TakeOvers()
		}
	}
	for _, ip := range s.in {
		for vc := range ip.voq {
			for _, b := range ip.voq[vc] {
				count(b)
			}
		}
	}
	for _, op := range s.out {
		for _, b := range op.buf {
			count(b)
		}
	}
	return st
}

// traceEvt records one lifecycle event for a sampled packet at this
// switch. Slack is measured against the switch's local (possibly skewed)
// clock — the same clock its schedulers see.
func (s *Switch) traceEvt(kind trace.Kind, p *packet.Packet, port, out int) {
	s.cfg.Tracer.Record(trace.Event{
		T: s.cfg.Eng.Now(), Kind: kind, Pkt: p.ID, Flow: p.Flow,
		Class: p.Class, VC: p.VC, Seq: p.Seq, Src: p.Src, Dst: p.Dst,
		Node: s.cfg.ID, Port: port, Out: out, Hop: p.Hop,
		Slack: p.Deadline - s.cfg.Clock.Now(), Size: p.Size,
	})
}

// bufObserver surfaces buffer-internal events (take-over enqueues, order
// errors) of one queue as packet lifecycle events. Installed only when
// tracing is on, so the disabled path never pays the interface call.
type bufObserver struct {
	sw   *Switch
	port int // owning port index (input port for VOQs, output port for output buffers)
	out  int // VOQ's destination output port; -1 for output buffers
}

func (b *bufObserver) TakeOverEnqueued(p *packet.Packet) {
	if p.Sampled {
		b.sw.traceEvt(trace.KindTakeOver, p, b.port, b.out)
	}
}

func (b *bufObserver) OrderError(p *packet.Packet) {
	if p.Sampled {
		b.sw.traceEvt(trace.KindOrderError, p, b.port, b.out)
	}
}

// PortTelemetry is a point-in-time view of one switch port for the
// periodic probes: current buffer occupancy on both sides of the crossbar
// plus the cumulative take-over/order-error counters of every queue the
// port owns (counters are cumulative; the probe loop differences them).
type PortTelemetry struct {
	InPackets   int        // packets queued in the input VOQs
	InBytes     units.Size // bytes queued in the input VOQs (pool usage)
	OutPackets  int        // packets queued in the output buffers
	OutBytes    units.Size // bytes queued in the output buffers
	TakeOvers   uint64     // cumulative take-over enqueues, input + output queues
	OrderErrors uint64     // cumulative order errors, input + output queues
}

// PortTelemetry returns the probe view of port p.
func (s *Switch) PortTelemetry(p int) PortTelemetry {
	var t PortTelemetry
	count := func(b pqueue.Buffer) {
		t.OrderErrors += b.OrderErrors()
		if tq, ok := b.(*pqueue.TakeOverQueue); ok {
			t.TakeOvers += tq.TakeOvers()
		}
	}
	ip := s.in[p]
	for vc := range ip.voq {
		t.InBytes += ip.pool[vc]
		for _, b := range ip.voq[vc] {
			t.InPackets += b.Len()
			count(b)
		}
	}
	op := s.out[p]
	for _, b := range op.buf {
		t.OutPackets += b.Len()
		t.OutBytes += b.Bytes()
		count(b)
	}
	return t
}

// InTransit returns the packets currently crossing the crossbar: popped
// from an input VOQ but not yet in an output buffer. Together with Queued
// this accounts for every packet inside the switch (conservation checks).
func (s *Switch) InTransit() int { return s.inXbar }

// Queued returns the total packets currently buffered in the switch
// (diagnostics and drain checks).
func (s *Switch) Queued() int {
	n := 0
	for _, ip := range s.in {
		for vc := range ip.voq {
			for _, b := range ip.voq[vc] {
				n += b.Len()
			}
		}
	}
	for _, op := range s.out {
		for _, b := range op.buf {
			n += b.Len()
		}
	}
	return n
}
