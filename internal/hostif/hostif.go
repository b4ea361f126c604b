// Package hostif models the end-host network interface, where all the
// per-flow intelligence of the paper's architecture lives (§3, §3.1):
//
//   - Per-flow records hold the parameters needed to stamp deadlines; the
//     switches never see them.
//   - Deadline calculus: for most flows D(Pi) = max(D(Pi-1), Tnow) +
//     L(Pi)/BWavg (a Virtual Clock). Control flows use the link bandwidth
//     as BWavg (maximum priority); multimedia flows spread a configured
//     target frame latency over the frame's packets: D(Pi) =
//     max(D(Pi-1), Tnow) + target/Parts(F).
//   - Eligible time: optionally a packet may not enter the network before
//     deadline − lead (20 µs in the paper), smoothing multimedia bursts.
//   - Injection queues (§3.2): in the regulated VC an eligible-time queue
//     feeds a deadline-ordered ready queue; the best-effort VC is also
//     deadline-ordered. Best-effort injects only when the regulated VC has
//     nothing ready. Under the Traditional architectures the NIC instead
//     keeps one FIFO per VC and injects packets as soon as possible.
//   - Staged records: a packet waits in these queues as an 80-byte
//     pointer-free record (packet.Staged) holding every stamp emit
//     computed. The packet itself is built from the record when the link
//     takes it, so a backlog costs records, not packets (DESIGN.md §5).
//
// The receive side models a NIC that drains at line rate: packets are
// delivered to the application immediately and credits return to the
// upstream switch at once.
package hostif

import (
	"fmt"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/link"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/paged"
	"deadlineqos/internal/police"
	"deadlineqos/internal/policy"
	"deadlineqos/internal/pqueue"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
)

// DeadlineMode selects how a flow computes packet deadlines (§3.1).
type DeadlineMode uint8

// Deadline computation modes.
const (
	// ByBandwidth: D += L/BWavg, the Virtual Clock rule. Control flows
	// use the link bandwidth as BWavg.
	ByBandwidth DeadlineMode = iota
	// FrameLatency: D += targetLatency/Parts(F), giving every application
	// frame the same latency budget regardless of its size.
	FrameLatency
	// Absolute: every packet carries the flow's AbsDeadline verbatim — the
	// coflow-level EDF rule, where all packets of a collective round share
	// the round's completion deadline regardless of emission time. The
	// deadline is interpreted against this host's local clock (the TTD
	// header transports it skew-tolerantly from there, §3.3).
	Absolute
)

// Flow is a per-flow record kept at the sending host.
type Flow struct {
	ID       packet.FlowID
	Class    packet.Class
	Src, Dst int
	Route    []int // fixed route: output port per switch hop

	Mode   DeadlineMode
	BW     units.Bandwidth // ByBandwidth: the reserved average bandwidth
	Target units.Time      // FrameLatency: desired per-frame latency
	// AbsDeadline is the shared deadline stamped in Absolute mode, against
	// this host's local clock. The coflow manager rewrites it (and Mode)
	// per collective round before submitting.
	AbsDeadline units.Time
	// Value is the flow's value density (worth per payload byte) used by
	// value-aware dropping policies; zero means worthless under eviction.
	// Stamped onto packets in exact milli-units (see packet.Value).
	Value float64
	// UseEligible delays injection until deadline − the host's lead time.
	UseEligible bool
	// Policed marks an admitted flow whose reservation the
	// guarantee-protection plane enforces at NIC ingress (when the host's
	// Config.Police is on): the sustained rate of the dual token bucket is
	// BW. The deadline-forgery test applies only in ByBandwidth mode,
	// where a conforming stamp equals the legal envelope exactly; the
	// other modes stamp legally tighter deadlines by design and get the
	// rate test alone. The flag also scopes behavioural fault windows
	// (SetRogue / SetForge): only admitted traffic misbehaves.
	Policed bool

	// slot is the host route-table slot that last held Route, a hint
	// the next emit checks before taking a new slot (routeTable.hold).
	// It sits in the padding after Policed.
	slot uint32

	lastDeadline units.Time
	seq          uint64
	pol          *police.Policer
	// rel holds the flow's tracked packets (nil unless the reliability
	// layer runs). A pointer keeps Flow in its 128-byte size class: a
	// 128-host fabric registers tens of thousands of flows.
	rel *relWindow
}

// IDSource hands out simulation-unique packet and frame identifiers. The
// network layer gives every host its own instance over a disjoint id range
// (see NewIDSource), so id assignment is independent of cross-host event
// interleaving and identical between sequential and sharded runs.
type IDSource struct {
	pkt, frame uint64
}

// NewIDSource returns an IDSource whose packet and frame counters both
// start just above base. Callers space bases far enough apart (the network
// uses (host+1)<<40) that ranges never collide.
func NewIDSource(base uint64) *IDSource {
	return &IDSource{pkt: base, frame: base}
}

// NextPacket returns a fresh packet id.
func (s *IDSource) NextPacket() uint64 { s.pkt++; return s.pkt }

// NextFrame returns a fresh frame id.
func (s *IDSource) NextFrame() uint64 { s.frame++; return s.frame }

// Hooks are the instrumentation callbacks a Host reports to (wired to the
// stats collector). Any may be nil. The packet a hook is handed is valid
// only during the call: it may be recycled as soon as the hook returns
// (see packet.Pool), so a hook copies whatever it keeps. Before injection
// a packet exists only as a staged record, so Generated, Policed,
// Demoted, Retransmitted and Evicted are handed the host's scratch packet,
// which holds the record's stamps and is overwritten by the next emit.
type Hooks struct {
	Generated func(p *packet.Packet)
	Injected  func(p *packet.Packet, now units.Time)
	Delivered func(p *packet.Packet, now units.Time)
	// Corrupted observes copies dropped by this host's CRC check.
	Corrupted func(p *packet.Packet, now units.Time)
	// DupDropped observes duplicate copies dropped by this host.
	DupDropped func(p *packet.Packet, now units.Time)
	// Retransmitted observes retransmit copies queued at the source.
	Retransmitted func(p *packet.Packet, now units.Time)
	// Demoted observes packets demoted to the best-effort VC.
	Demoted func(p *packet.Packet, now units.Time)
	// Policed observes packets the ingress policer demoted to best effort
	// for violating their flow's reservation; forged marks
	// deadline-forgery verdicts (vs plain rate excess).
	Policed func(p *packet.Packet, now units.Time, forged bool)
	// Evicted observes packets a bounded injection queue discarded before
	// injection (value-drop policies). Such packets were Generated but
	// never enter the network: the evicted record is unpacked into the
	// scratch packet and never becomes a packet.
	Evicted func(p *packet.Packet, now units.Time)
}

// Config parameterises one host NIC.
type Config struct {
	Eng   *sim.Engine
	Clock packet.Clock
	ID    int
	Arch  arch.Arch
	// MTU is the maximum wire size of one packet, header included
	// (2 KB in the paper's multimedia example).
	MTU units.Size
	// EligibleLead is the deadline-minus-eligible-time gap (20 µs in the
	// paper). Zero disables eligible-time shaping globally.
	EligibleLead units.Time
	IDs          *IDSource
	// Pool recycles packets on the host's shard: injection takes the
	// packet a staged record becomes from it, and the host returns every
	// packet whose life ends here (delivery, CRC drop, duplicate drop).
	// Nil allocates every packet and recycles none.
	Pool *packet.Pool[packet.Packet]
	// Records is the shard's free list of staged records: emit and
	// retransmit take one per packet, and injection and eviction return
	// it. Nil gives the host a free list of its own.
	Records *packet.Pool[packet.Staged]
	Hooks   Hooks
	// Reliability configures the end-to-end retransmission layer (see
	// reliability.go); the zero value disables it.
	Reliability Reliability
	// SendAck delivers an out-of-band receiver report to the source host
	// of a flow: ok acknowledges delivery of (flow, seq), !ok requests a
	// retransmission. dst is the reporting host (this one), which the
	// network uses to key the report's ordering channel. Wired by the
	// network when reliability is enabled; the transport (and its delay)
	// is the caller's.
	SendAck func(src, dst int, flow packet.FlowID, seq uint64, ok bool)
	// Tracer records lifecycle events of sampled packets (nil = tracing
	// off; every event site guards on the pointer and the packet's
	// Sampled bit, so the disabled cost is one comparison).
	Tracer *trace.Tracer
	// Policy selects the scheduling policy (injection-queue discipline and
	// ready-VC selection). Nil means policy.Default, the seed behaviour.
	Policy policy.Policy
	// Police enables ingress policing of flows marked Policed: packets
	// violating the flow's token-bucket envelope are demoted to the
	// best-effort VC before staging. PoliceBurst is the burst tolerance in
	// bytes (police.DefaultBurst when zero).
	Police      bool
	PoliceBurst units.Size
}

// Host is one end host: traffic sources submit application messages to it,
// and it injects deadline-stamped packets into the network.
type Host struct {
	cfg     Config
	pol     policy.Policy
	out     *link.Link                // toward the leaf switch
	canSend func(*packet.Staged) bool // h.out's credit check, bound once at connect

	flows map[packet.FlowID]*Flow

	// scratch is the packet emit and retransmit stamp, and what hooks and
	// the tracer see of a record before injection and at eviction.
	scratch packet.Packet
	// Regulated-VC staging: records waiting for their eligible time,
	// ordered by eligible time.
	elig eligHeap
	// Ready queues, one per VC: deadline-ordered for EDF architectures,
	// FIFO for Traditional.
	ready [packet.NumVCs]policy.HostQueue
	// What a record cannot hold: the routes of staged records, by the
	// slot index each record keeps, and Ctl payloads by packet id.
	routes routeTable
	ctl    map[uint64]any

	wake   sim.Handle // pending eligibility wake-up
	wakeAt units.Time // oracle time the pending wake-up fires

	upstream link.CreditReturner // credit-return path of the receive-side link

	received uint64

	// Reliability layer (nil when disabled): sender-side entry pool and
	// count (the entries live in each Flow's window), receive-side
	// sequence trackers, and counters.
	rel    *relState
	rx     map[packet.FlowID]*rxFlow
	relCnt RelCounters

	// onCtl receives delivered in-band control payloads (SetCtlHandler).
	onCtl func(p *packet.Packet)

	// Behavioural fault windows (faults.RogueFlow / faults.DeadlineForge):
	// while rogue > 1 every message on a policed flow is multiplied by
	// rogue (fractional part carried in rogueAcc); while 0 < forge < 1 the
	// ByBandwidth deadline increment of policed flows is scaled by forge.
	rogue    float64
	rogueAcc float64
	forge    float64
}

// New returns a host NIC. Connect it with ConnectOut before submitting.
func New(cfg Config) *Host {
	if cfg.Reliability.Enabled {
		cfg.Reliability = cfg.Reliability.WithDefaults()
	}
	if cfg.Records == nil {
		cfg.Records = new(packet.Pool[packet.Staged])
	}
	h := &Host{cfg: cfg, pol: cfg.Policy, flows: make(map[packet.FlowID]*Flow)}
	if h.pol == nil {
		h.pol = policy.Default()
	}
	for vc := 0; vc < packet.NumVCs; vc++ {
		h.ready[vc] = h.pol.NewHostQueue(cfg.Arch, packet.VC(vc))
		if ev, ok := h.ready[vc].(pqueue.Evictor[*packet.Staged]); ok {
			ev.SetOnEvict(h.onEvict)
		}
	}
	if cfg.Reliability.Enabled {
		h.rel = &relState{}
		h.rx = make(map[packet.FlowID]*rxFlow)
	}
	return h
}

// ID returns the host index.
func (h *Host) ID() int { return h.cfg.ID }

// ConnectOut wires the injection link and hooks its readiness callback.
func (h *Host) ConnectOut(l *link.Link) {
	h.out = l
	h.canSend = func(r *packet.Staged) bool { return l.Idle() && l.Credits(r.VC) >= units.Size(r.Size) }
	l.OnReady = func() { h.tryInject() }
}

// AddFlow registers a flow record. It panics on duplicate ids or a flow
// not originating here, which indicate setup bugs.
func (h *Host) AddFlow(f *Flow) {
	if f.Src != h.cfg.ID {
		panic(fmt.Sprintf("hostif: flow %d src %d registered at host %d", f.ID, f.Src, h.cfg.ID))
	}
	if _, dup := h.flows[f.ID]; dup {
		panic(fmt.Sprintf("hostif: duplicate flow id %d", f.ID))
	}
	if h.rel != nil {
		f.rel = new(relWindow)
	}
	h.flows[f.ID] = f
}

// Flow returns the registered flow record for id, or nil.
func (h *Host) Flow(id packet.FlowID) *Flow { return h.flows[id] }

// SubmitMessage is called by a traffic source when the application emits a
// message (a control message, a video frame, a best-effort burst unit) of
// the given payload size on the given flow. The NIC segments it into MTU
// packets, stamps deadlines and eligible times, and stages them for
// injection.
func (h *Host) SubmitMessage(flowID packet.FlowID, payload units.Size) {
	f := h.flows[flowID]
	if f == nil {
		panic(fmt.Sprintf("hostif: submit on unknown flow %d", flowID))
	}
	if payload <= 0 {
		panic(fmt.Sprintf("hostif: non-positive message size %v", payload))
	}
	now := h.cfg.Clock.Now()

	maxPayload := h.cfg.MTU - packet.HeaderSize
	parts := int((payload + maxPayload - 1) / maxPayload)

	// A rogue window (faults.RogueFlow) multiplies the host's admitted
	// traffic: each submitted message is emitted rogue times in total,
	// the fractional part carried across messages so the long-run excess
	// factor is exact. Only policed (admitted) flows misbehave — the
	// point is to overdrive a reservation, not background traffic.
	copies := 1
	if h.rogue > 1 && f.Policed {
		h.rogueAcc += h.rogue - 1
		for h.rogueAcc >= 1 {
			h.rogueAcc--
			copies++
		}
	}
	for c := 0; c < copies; c++ {
		frameID := h.cfg.IDs.NextFrame()
		remaining := payload
		for i := 0; i < parts; i++ {
			chunk := maxPayload
			if remaining < chunk {
				chunk = remaining
			}
			remaining -= chunk
			h.emit(f, chunk, frameID, parts, nil, now)
		}
	}
	h.tryInject()
}

// SubmitCtl submits an in-band control-plane message: a single packet on
// the given flow whose header rides the normal data path (deadline
// calculus, VC mapping, injection queues, reliability) and whose opaque
// payload ctl is handed to the destination host's control handler (see
// SetCtlHandler) on delivery. The message must fit one packet — control
// messages are small by design (the paper's §3.1 gives Control traffic
// maximum priority precisely because it is short).
func (h *Host) SubmitCtl(flowID packet.FlowID, payload units.Size, ctl any) {
	f := h.flows[flowID]
	if f == nil {
		panic(fmt.Sprintf("hostif: submit on unknown flow %d", flowID))
	}
	if ctl == nil {
		panic("hostif: nil control payload")
	}
	if payload <= 0 || payload > h.cfg.MTU-packet.HeaderSize {
		panic(fmt.Sprintf("hostif: control payload %v does not fit one packet (MTU %v)",
			payload, h.cfg.MTU))
	}
	h.emit(f, payload, h.cfg.IDs.NextFrame(), 1, ctl, h.cfg.Clock.Now())
	h.tryInject()
}

// SetCtlHandler registers the callback that receives delivered in-band
// control payloads (packets submitted with SubmitCtl). The handler runs at
// event time on this host's engine, after the normal delivery accounting;
// the packet is recycled when it returns, so the handler keeps p.Ctl, not
// p.
func (h *Host) SetCtlHandler(fn func(p *packet.Packet)) { h.onCtl = fn }

// emit stamps one packet of a message — deadline calculus (§3.1),
// eligible time, tracing, generation hook — into the scratch packet and
// stages it for injection as a record. ctl, when non-nil, rides the
// packet as an in-band control payload. Callers follow up with tryInject.
func (h *Host) emit(f *Flow, chunk units.Size, frameID uint64, parts int, ctl any, now units.Time) {
	p := &h.scratch
	*p = packet.Packet{
		ID:         h.cfg.IDs.NextPacket(),
		Flow:       f.ID,
		Class:      f.Class,
		VC:         h.cfg.Arch.VCFor(f.Class),
		Src:        f.Src,
		Dst:        f.Dst,
		Size:       chunk + packet.HeaderSize,
		Seq:        f.seq,
		Route:      f.Route,
		CreatedAt:  h.cfg.Eng.Now(),
		FrameID:    frameID,
		FrameParts: parts,
		Ctl:        ctl,
	}
	f.seq++

	// Deadline calculus (§3.1).
	base := f.lastDeadline
	if now > base {
		base = now
	}
	// A rogue window also resets the flow's virtual clock: the chaining
	// base max(lastDeadline, now) is what encodes "this flow already
	// consumed its rate", and a babbling host discards it, stamping
	// every message as freshly urgent. The stamps stay individually
	// well-formed, so only the policer's own envelope replay — whose TAT
	// never resets — can tell the excess from honest traffic.
	if h.rogue > 1 && f.Policed {
		base = now
	}
	switch f.Mode {
	case ByBandwidth:
		inc := f.BW.TxTime(p.Size)
		// A forge window (faults.DeadlineForge) tightens the ByBandwidth
		// increment below what the reservation permits — claiming urgency
		// the flow did not pay for. The rule is only defined for
		// ByBandwidth stamping, so the other modes are unaffected.
		if h.forge > 0 && h.forge < 1 && f.Policed {
			inc = units.Time(float64(inc) * h.forge)
			if inc < 1 {
				inc = 1
			}
		}
		p.Deadline = base + inc
	case FrameLatency:
		p.Deadline = base + f.Target/units.Time(parts)
	case Absolute:
		p.Deadline = f.AbsDeadline
	default:
		panic("hostif: unknown deadline mode")
	}
	f.lastDeadline = p.Deadline

	// Ingress policing (guarantee-protection plane): replay the flow's
	// legal envelope and demote violating packets to best effort before
	// staging. Only ByBandwidth stamps are checked for forgery — a
	// conforming stamp there equals the envelope exactly — while
	// FrameLatency and Absolute flows stamp legally tighter deadlines by
	// design and face the rate test alone.
	verdict := police.Conform
	if h.cfg.Police && f.Policed {
		if f.pol == nil {
			f.pol = police.New(f.BW, h.cfg.PoliceBurst)
		}
		dl := p.Deadline
		if f.Mode != ByBandwidth {
			dl = units.Infinity
		}
		if verdict = f.pol.Check(now, p.Size, dl); verdict != police.Conform {
			p.VC = packet.VCBestEffort
		}
	}

	if f.Value != 0 {
		// Exact milli-unit density × wire bytes; both factors are fixed at
		// flow setup, so the product is shard-independent.
		p.Value = int64(f.Value*1000+0.5) * int64(p.Size)
	}

	// A rogue window models a babbling NIC: besides multiplying its
	// traffic the host stops honouring the eligibility shaper on the
	// flows it overdrives — the stamps still chain legally, but packets
	// blast into the fabric as fast as credits allow. Without this the
	// shaper itself would meter the excess and a rogue could only ever
	// hurt its own flows.
	if f.UseEligible && h.cfg.EligibleLead > 0 && !(h.rogue > 1 && f.Policed) {
		p.Eligible = p.Deadline - h.cfg.EligibleLead
	}

	if tr := h.cfg.Tracer; tr != nil {
		p.Sampled = tr.SampleID(p.ID)
		if p.Sampled {
			h.traceEvt(trace.KindGenerated, p)
			if verdict != police.Conform {
				h.traceEvt(trace.KindPoliced, p)
			}
		}
	}
	if h.cfg.Hooks.Generated != nil {
		h.cfg.Hooks.Generated(p)
	}
	if verdict != police.Conform && h.cfg.Hooks.Policed != nil {
		h.cfg.Hooks.Policed(p, now, verdict == police.Forged)
	}
	h.stage(p, f, now)
}

// stage turns the freshly stamped packet p of flow f into a record and
// places it into the eligibility or ready queue. The Traditional
// architecture ignores eligible times (they are part of the paper's
// proposal, not of PCI AS).
func (h *Host) stage(p *packet.Packet, f *Flow, localNow units.Time) {
	r := h.record(p, f)
	if h.cfg.Arch.DeadlineAware() && r.Eligible > localNow {
		if h.cfg.Tracer != nil && p.Sampled {
			h.traceEvt(trace.KindEligibleHold, p)
		}
		h.elig.push(r)
		h.armWake()
		return
	}
	h.ready[r.VC].Push(r)
}

// armWake schedules the next eligibility promotion event, replacing any
// later pending wake-up when a newly staged packet becomes eligible first.
func (h *Host) armWake() {
	next := h.elig.minEligible()
	if next == units.Infinity {
		return
	}
	// Translate the local eligible time to the oracle clock the engine
	// runs on.
	at := next - h.cfg.Clock.Skew
	if at < h.cfg.Eng.Now() {
		at = h.cfg.Eng.Now()
	}
	if h.wake.Pending() {
		if h.wakeAt <= at {
			return
		}
		h.cfg.Eng.Cancel(h.wake)
	}
	h.wakeAt = at
	h.wake = h.cfg.Eng.Post(at, 0, sim.Payload{H: h, Kind: sim.KindWake})
}

// Fire implements sim.Handler for the NIC's own events: the eligibility
// wake-up, a retransmission timeout for flow A's sequence number B, and a
// receiver report built by AckEvent.
func (h *Host) Fire(kind sim.Kind, _ *packet.Packet, a, b uint64) {
	switch kind {
	case sim.KindWake:
		h.tryInject()
	case sim.KindRetx:
		h.onRetxTimeout(packet.FlowID(a), b)
	case sim.KindAck:
		h.handleAck(packet.FlowID(a), b, a>>32 != 0)
	default:
		panic(fmt.Sprintf("hostif: host %d: unexpected event kind %d", h.cfg.ID, kind))
	}
}

// promoteEligible moves records whose eligible time has come into their
// ready queue.
func (h *Host) promoteEligible() {
	now := h.cfg.Clock.Now()
	for {
		r := h.elig.peek()
		if r == nil || r.Eligible > now {
			break
		}
		h.elig.pop()
		h.ready[r.VC].Push(r)
	}
	if h.elig.len() > 0 && !h.wake.Pending() {
		h.armWake()
	}
}

// tryInject transmits the next packet if the link permits. Which ready VC
// goes next is the policy's PickInject decision; the default policy is the
// paper's rule (§3.2): the regulated ready queue first, best-effort only
// when the regulated VC has no transmittable packet (packets still waiting
// for eligibility do not block best-effort), and under Traditional the
// FIFO heads of both VCs offered in VC order (regulated classes first,
// matching a typical AS host adapter configuration). The packet is built
// here, from the record the link takes, and the record is freed.
func (h *Host) tryInject() {
	if h.out == nil {
		return
	}
	h.promoteEligible()
	for h.out.Idle() {
		vc := h.pol.PickInject(&h.ready, h.canSend)
		if vc < 0 {
			return
		}
		p := h.cfg.Pool.Get()
		h.unstage(h.ready[vc].Pop(), p)
		p.InjectedAt = h.cfg.Eng.Now()
		if h.cfg.Tracer != nil && p.Sampled {
			h.traceEvt(trace.KindInjected, p)
		}
		if h.cfg.Hooks.Injected != nil {
			h.cfg.Hooks.Injected(p, p.InjectedAt)
		}
		if h.rel != nil {
			h.trackInjected(p)
		}
		// TTD is stamped as of the moment the last byte leaves the
		// NIC (see link.TxTime), keeping reconstructed deadlines free
		// of size-dependent inflation.
		p.PackTTD(h.cfg.Clock.Now() + h.out.TxTime(p))
		h.out.Send(p)
	}
}

// onEvict accounts a record a bounded ready queue discarded: its packet
// was Generated but never injected, so the conservation invariant needs
// the dedicated eviction term (faults.Conservation.EvictedAtNIC). Fires
// synchronously from inside a ready-queue Push; the record's life ends
// here, and the tracer and the hook see it in the scratch packet.
func (h *Host) onEvict(r *packet.Staged) {
	p := &h.scratch
	h.unstage(r, p)
	if h.cfg.Tracer != nil && p.Sampled {
		h.traceEvt(trace.KindNICEvict, p)
	}
	if h.cfg.Hooks.Evicted != nil {
		h.cfg.Hooks.Evicted(p, h.cfg.Eng.Now())
	}
}

// Receive implements link.Receiver for the host's downlink: the NIC drains
// at line rate, so credits return immediately in every case — a corrupted
// or duplicate copy occupied the buffer just like a good one. Corrupted
// copies fail the end-to-end CRC check and are dropped (with a NAK when
// the reliability layer runs); duplicates are dropped and re-acknowledged;
// everything else is delivered to the application at once. Each of the
// three ends the packet's life, so it returns to the pool last. The
// upstream link is identified per call via SetUpstream.
func (h *Host) Receive(p *packet.Packet) {
	p.UnpackTTD(h.cfg.Clock.Now())
	if h.upstream != nil {
		h.upstream.ReturnCredits(p.VC, p.Size)
	}
	now := h.cfg.Eng.Now()
	if p.Corrupted {
		h.relCnt.RxCorrupt++
		if h.cfg.Tracer != nil && p.Sampled {
			h.traceEvt(trace.KindCRCDrop, p)
		}
		if h.cfg.Hooks.Corrupted != nil {
			h.cfg.Hooks.Corrupted(p, now)
		}
		if h.rel != nil {
			h.sendReport(p, p.Seq, false)
			h.rxFlowOf(p.Flow).naked(p.Seq)
		}
		h.cfg.Pool.Put(p)
		return
	}
	if h.rel != nil {
		rx := h.rxFlowOf(p.Flow)
		if rx.seen(p.Seq) {
			h.relCnt.RxDup++
			if h.cfg.Tracer != nil && p.Sampled {
				h.traceEvt(trace.KindDupDrop, p)
			}
			if h.cfg.Hooks.DupDropped != nil {
				h.cfg.Hooks.DupDropped(p, now)
			}
			// Re-acknowledge: the original ack may have raced a timeout.
			h.sendReport(p, p.Seq, true)
			h.cfg.Pool.Put(p)
			return
		}
		rx.mark(p.Seq)
		// The network delivers each flow in order, so sequence numbers
		// missing below this arrival were lost upstream: NAK them once.
		for _, s := range rx.gaps(p.Seq) {
			h.sendReport(p, s, false)
		}
	}
	h.received++
	if h.cfg.Tracer != nil && p.Sampled {
		// Slack here is the delivery slack: Deadline was reconstructed
		// against this host's clock at arrival, so Deadline − now == TTD.
		h.traceEvt(trace.KindDelivered, p)
	}
	if h.cfg.Hooks.Delivered != nil {
		h.cfg.Hooks.Delivered(p, now)
	}
	if h.rel != nil {
		h.sendReport(p, p.Seq, true)
	}
	// In-band control payloads dispatch last, after delivery accounting:
	// the handler may submit new packets (a CAC grant, a reply), and those
	// must observe this delivery as already counted. The reliability
	// layer's duplicate check above guarantees at-most-once dispatch even
	// when the control packet itself was retransmitted.
	if p.Ctl != nil && h.onCtl != nil {
		h.onCtl(p)
	}
	h.cfg.Pool.Put(p)
}

// traceEvt records one lifecycle event for a sampled packet. Callers must
// guard with h.cfg.Tracer != nil && p.Sampled so the disabled path stays
// free of the Event construction below.
func (h *Host) traceEvt(kind trace.Kind, p *packet.Packet) {
	h.cfg.Tracer.Record(trace.Event{
		T: h.cfg.Eng.Now(), Kind: kind, Pkt: p.ID, Flow: p.Flow,
		Class: p.Class, VC: p.VC, Seq: p.Seq, Src: p.Src, Dst: p.Dst,
		Node: h.cfg.ID, Port: -1, Out: -1, Hop: p.Hop,
		Slack: p.Deadline - h.cfg.Clock.Now(), Size: p.Size,
	})
}

// sendReport emits an out-of-band ack/nak toward p's source host.
func (h *Host) sendReport(p *packet.Packet, seq uint64, ok bool) {
	if h.cfg.SendAck != nil {
		h.cfg.SendAck(p.Src, h.cfg.ID, p.Flow, seq, ok)
	}
}

// SetRogue enters (factor > 1) or leaves (factor <= 1) a rogue-flow
// window: while set, every message submitted on a policed flow is emitted
// factor times in total, overdriving the host's reservations by that
// factor. Wired by the network from faults.RogueFlow events; runs on this
// host's shard.
func (h *Host) SetRogue(factor float64) {
	h.rogue = factor
	if factor <= 1 {
		h.rogueAcc = 0
	}
}

// SetForge enters (0 < scale < 1) or leaves (scale <= 0 or >= 1) a
// deadline-forge window: while set, ByBandwidth deadline increments of
// policed flows are scaled by scale, stamping tighter deadlines than the
// BWavg rule permits. Wired from faults.DeadlineForge events.
func (h *Host) SetForge(scale float64) { h.forge = scale }

// SetUpstream registers the credit-return path of the link feeding the
// host's receive side (the link itself, or a parsim cross-shard portal).
func (h *Host) SetUpstream(cr link.CreditReturner) { h.upstream = cr }

// Pending returns the number of records staged in the NIC (both queues),
// for drain checks and diagnostics.
func (h *Host) Pending() int {
	n := h.elig.len()
	for _, q := range h.ready {
		n += q.Len()
	}
	return n
}

// Received returns the number of packets delivered to this host.
func (h *Host) Received() uint64 { return h.received }

// --- eligibility heap ----------------------------------------------------

// eligHeap orders staged records by eligible time (ties by packet id, for
// determinism). Under eligible-time shaping it holds a saturated NIC's
// backlog, so its entries live in a paged array that grows without
// copying them.
type eligHeap struct {
	items paged.Array[*packet.Staged]
}

func (e *eligHeap) len() int { return e.items.Len() }

func (e *eligHeap) less(i, j int) bool {
	a, b := *e.items.At(i), *e.items.At(j)
	if a.Eligible != b.Eligible {
		return a.Eligible < b.Eligible
	}
	return a.ID < b.ID
}

func (e *eligHeap) swap(i, j int) {
	a, b := e.items.At(i), e.items.At(j)
	*a, *b = *b, *a
}

func (e *eligHeap) push(r *packet.Staged) {
	e.items.Push(r)
	i := e.items.Len() - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.swap(i, parent)
		i = parent
	}
}

func (e *eligHeap) peek() *packet.Staged {
	if e.items.Len() == 0 {
		return nil
	}
	return *e.items.At(0)
}

func (e *eligHeap) minEligible() units.Time {
	if e.items.Len() == 0 {
		return units.Infinity
	}
	return (*e.items.At(0)).Eligible
}

func (e *eligHeap) pop() *packet.Staged {
	n := e.items.Len()
	if n == 0 {
		return nil
	}
	e.swap(0, n-1)
	top := e.items.Pop()
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && e.less(l, small) {
			small = l
		}
		if r < n && e.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		e.swap(i, small)
		i = small
	}
	return top
}
