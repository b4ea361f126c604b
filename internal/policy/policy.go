// Package policy lifts the scheduling decisions of the paper's
// architecture out of the hot paths and behind one pluggable interface,
// so alternative scheduling ideas from the literature compare head-to-head
// without surgery on hostif or switchsim (ROADMAP item 5).
//
// A Policy decides exactly three things:
//
//   - which buffer discipline each host injection queue uses (NewHostQueue,
//     including bounded queues that may evict under pressure — see
//     pqueue.DropQueue); host queues hold the NIC's staged records
//     (packet.Staged), not packets,
//   - which ready VC the NIC injects from next (PickInject),
//   - which candidate a switch output port grants, at the crossbar and at
//     the link (NewArbiter).
//
// Everything else — deadline stamping modes, admission, virtual channels,
// credits — stays in the owning packages; a policy composes them.
//
// Contract (see DESIGN.md §14): policies must be deterministic pure
// functions of their visible inputs (queue heads, candidate lists, their
// own per-port state created by NewArbiter). They must not read clocks,
// random sources, or global state, and they must not retain or mutate
// packets or staged records beyond the decision — this is what keeps
// results byte-identical at any shard count. The nil policy (Config
// fields left nil) costs nothing extra: the default implementations below
// replicate the seed EDF-takeover behaviour instruction for instruction.
//
// Three policies ship built in:
//
//   - Default: the paper's per-packet EDF with absolute regulated-VC
//     priority (byte-identical to the pre-policy simulator).
//   - CoflowEDF: identical data path, but flags CoflowDeadlines so the
//     coflow manager (internal/coflow) stamps every packet of a collective
//     round with the round's shared absolute deadline (DCoflow-style
//     coflow-level EDF, arXiv 2205.01229).
//   - ValueDrop: bounds the best-effort injection queues and evicts the
//     lowest value-density packet on overflow (Fei Li's bounded-queue
//     weighted packet dropping, arXiv 0807.2694); the tail variant drops
//     arrivals instead, as the classic baseline.
package policy

import (
	"fmt"
	"math"

	"deadlineqos/internal/arbiter"
	"deadlineqos/internal/arch"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/pqueue"
	"deadlineqos/internal/units"
)

// HostQueueCap is the default injection-queue capacity: host memory,
// effectively unbounded compared to switch buffers (same value the seed
// hostif used, headroom against Size overflow in accounting sums).
const HostQueueCap = units.Size(math.MaxInt64 / 4)

// DefaultDropBound is the ValueDrop policy's per-queue byte bound when the
// caller does not override it: a few dozen MTU packets, small enough that
// hotspot backpressure forces eviction decisions instead of unbounded
// host-memory queueing.
const DefaultDropBound = 64 * units.Kilobyte

// HostQueue is the injection ready queue of one NIC VC. A packet waits in
// it as a staged record (packet.Staged) from emit until the link takes
// it; the packet itself is built only then (DESIGN.md §5).
type HostQueue = pqueue.Queue[*packet.Staged]

// Policy is one scheduling policy. Implementations must be stateless and
// reusable across hosts, switches and runs: all mutable per-port state
// lives in the Arbiter instances NewArbiter returns and the HostQueue
// instances NewHostQueue returns.
type Policy interface {
	// Name identifies the policy in results, metrics and CLI flags.
	Name() string
	// NewHostQueue builds the injection ready queue of one host VC.
	NewHostQueue(a arch.Arch, vc packet.VC) HostQueue
	// PickInject chooses the ready VC the NIC injects from next, given
	// the per-VC ready queues and the link's credit check for a head
	// record. It returns -1 when nothing can be injected. The credit rule
	// of the paper's appendix applies: only each queue's Head may be
	// checked, never another stored record.
	PickInject(ready *[packet.NumVCs]HostQueue, canSend func(*packet.Staged) bool) int
	// NewArbiter builds the per-output-port arbitration state of one
	// switch port.
	NewArbiter(cfg ArbiterConfig) Arbiter
}

// ArbiterConfig carries what a switch output port knows at build time.
type ArbiterConfig struct {
	Arch  arch.Arch
	Radix int
	// VCTable overrides the Traditional architectures' weighted
	// arbitration table (nil = architecture default).
	VCTable []packet.VC
}

// Arbiter makes one switch output port's grant decisions. Instances are
// per-port and may keep rotating-priority state; both methods must be
// deterministic functions of that state and their arguments. The cands
// and heads arguments are scratch the switch keeps per output port and
// refills on every decision: an Arbiter must not retain them, or the
// slices inside cands, past the call.
type Arbiter interface {
	// PickXbar applies the two-level crossbar choice: VC first, then the
	// input within the VC. cands[vc] holds the head packets of non-busy
	// inputs that fit the output buffer. It returns the granted VC and
	// the index into cands[vc], or (0, -1) when nothing can be granted.
	PickXbar(cands *[packet.NumVCs][]arbiter.Candidate) (vc, sel int)
	// PickLinkVC chooses which VC transmits next on the output link.
	// heads[vc] is each VC buffer's discipline-designated head (nil when
	// empty); canSend is the link's credit check. Returns -1 when nothing
	// can be sent.
	PickLinkVC(heads *[packet.NumVCs]*packet.Packet, canSend func(*packet.Packet) bool) int
}

// CoflowAware is the optional interface a policy implements to request
// coflow-level deadline stamping: when it reports true, the coflow
// manager stamps every packet of an admitted collective round with the
// round's shared absolute deadline instead of the per-packet virtual
// clock.
type CoflowAware interface {
	CoflowDeadlines() bool
}

// IsCoflowAware reports whether p requests coflow-level deadlines.
func IsCoflowAware(p Policy) bool {
	ca, ok := p.(CoflowAware)
	return ok && ca.CoflowDeadlines()
}

// Names lists the built-in policy names accepted by Parse.
func Names() []string {
	return []string{"default", "coflow-edf", "value-drop", "value-drop-tail"}
}

// Parse returns the built-in policy of the given name ("" selects the
// default policy).
func Parse(name string) (Policy, error) {
	switch name {
	case "", "default":
		return Default(), nil
	case "coflow-edf":
		return CoflowEDF(), nil
	case "value-drop":
		return ValueDrop(0, false), nil
	case "value-drop-tail":
		return ValueDrop(0, true), nil
	default:
		return nil, fmt.Errorf("policy: unknown policy %q (have %v)", name, Names())
	}
}

// --- default policy ------------------------------------------------------

// defaultPolicy is the seed behaviour: per-packet EDF with absolute
// regulated-VC priority on the deadline-aware architectures, weighted
// VC-table arbitration on the Traditional ones.
type defaultPolicy struct{}

// Default returns the paper's EDF-takeover scheduling policy, the one the
// simulator shipped with before the policy interface existed. Every
// decision it makes is byte-identical to the seed.
func Default() Policy { return defaultPolicy{} }

func (defaultPolicy) Name() string { return "default" }

func (defaultPolicy) NewHostQueue(a arch.Arch, vc packet.VC) HostQueue {
	if a.DeadlineAware() {
		return pqueue.NewHeap[*packet.Staged](HostQueueCap, false)
	}
	return pqueue.NewFIFO[*packet.Staged](HostQueueCap, false)
}

func (defaultPolicy) PickInject(ready *[packet.NumVCs]HostQueue, canSend func(*packet.Staged) bool) int {
	// Regulated VCs first (§3.2): best-effort injects only when no lower
	// VC has a transmittable head.
	for vc := 0; vc < packet.NumVCs; vc++ {
		if r := ready[vc].Head(); r != nil && canSend(r) {
			return vc
		}
	}
	return -1
}

func (defaultPolicy) NewArbiter(cfg ArbiterConfig) Arbiter { return newDefaultArbiter(cfg) }

// defaultArbiter is the seed output-port arbitration state: per-VC EDF and
// round-robin arbiters plus the Traditional architectures' weighted VC
// tables (independent pointers for the crossbar and the link, as before).
type defaultArbiter struct {
	aware     bool
	edf       [packet.NumVCs]*arbiter.EDF
	rr        [packet.NumVCs]*arbiter.RoundRobin
	xbarTable *arbiter.VCTable
	linkTable *arbiter.VCTable
}

func newDefaultArbiter(cfg ArbiterConfig) *defaultArbiter {
	d := &defaultArbiter{aware: cfg.Arch.DeadlineAware()}
	for vc := 0; vc < packet.NumVCs; vc++ {
		d.edf[vc] = arbiter.NewEDF(cfg.Radix)
		d.rr[vc] = arbiter.NewRoundRobin(cfg.Radix)
	}
	switch {
	case cfg.VCTable != nil:
		d.xbarTable = arbiter.NewVCTable(cfg.VCTable)
		d.linkTable = arbiter.NewVCTable(cfg.VCTable)
	case cfg.Arch == arch.Traditional4VC:
		d.xbarTable = arbiter.Default4VCTable()
		d.linkTable = arbiter.Default4VCTable()
	default:
		d.xbarTable = arbiter.DefaultVCTable()
		d.linkTable = arbiter.DefaultVCTable()
	}
	return d
}

func (d *defaultArbiter) PickXbar(cands *[packet.NumVCs][]arbiter.Candidate) (int, int) {
	if d.aware {
		// Regulated VC has absolute priority; EDF within the VC.
		for vc := 0; vc < packet.NumVCs; vc++ {
			if len(cands[vc]) > 0 {
				return vc, d.edf[vc].Select(cands[vc])
			}
		}
		return 0, -1
	}
	var avail [packet.NumVCs]bool
	for vc := range cands {
		avail[vc] = len(cands[vc]) > 0
	}
	vc, ok := d.xbarTable.Next(avail)
	if !ok {
		return 0, -1
	}
	return int(vc), d.rr[vc].Select(cands[vc])
}

func (d *defaultArbiter) PickLinkVC(heads *[packet.NumVCs]*packet.Packet, canSend func(*packet.Packet) bool) int {
	if d.aware {
		// Absolute priority for the regulated VC. If its head is blocked
		// on credits the best-effort VC may use the idle link: the VCs
		// have independent downstream buffers, so this is work-conserving
		// without ever delaying a *transmittable* regulated packet.
		for vc := 0; vc < packet.NumVCs; vc++ {
			if h := heads[vc]; h != nil && canSend(h) {
				return vc
			}
		}
		return -1
	}
	var avail [packet.NumVCs]bool
	any := false
	for vc := 0; vc < packet.NumVCs; vc++ {
		h := heads[vc]
		avail[vc] = h != nil && canSend(h)
		any = any || avail[vc]
	}
	if !any {
		return -1
	}
	vc, ok := d.linkTable.Next(avail)
	if !ok {
		return -1
	}
	return int(vc)
}

// --- coflow-EDF policy ---------------------------------------------------

// coflowPolicy shares the default data path; the only difference is the
// CoflowDeadlines flag, which makes the coflow manager stamp collective
// rounds with shared absolute deadlines. Cross traffic is scheduled
// exactly as under Default, so E8 isolates the stamping rule.
type coflowPolicy struct{ defaultPolicy }

// CoflowEDF returns the coflow-level EDF policy.
func CoflowEDF() Policy { return coflowPolicy{} }

func (coflowPolicy) Name() string { return "coflow-edf" }

func (coflowPolicy) CoflowDeadlines() bool { return true }

// --- value-drop policy ---------------------------------------------------

// valueDropPolicy bounds the best-effort injection queues and sheds load
// by value density.
type valueDropPolicy struct {
	defaultPolicy
	bound units.Size
	tail  bool
}

// ValueDrop returns the value-density dropping policy: best-effort VCs get
// a bounded injection queue (bound bytes; 0 selects DefaultDropBound) that
// evicts the stored packet with the lowest value/size ratio on overflow.
// With tail set, the queue instead drops the arriving packet when it does
// not fit — the classic tail-drop baseline the value-aware variant is
// measured against. Regulated VCs keep the default unbounded queue: their
// load is admission-controlled and must never be shed at the NIC.
func ValueDrop(bound units.Size, tail bool) Policy {
	if bound <= 0 {
		bound = DefaultDropBound
	}
	return valueDropPolicy{bound: bound, tail: tail}
}

func (v valueDropPolicy) Name() string {
	if v.tail {
		return "value-drop-tail"
	}
	return "value-drop"
}

func (v valueDropPolicy) NewHostQueue(a arch.Arch, vc packet.VC) HostQueue {
	// Only the VCs carrying best-effort classes are bounded. Under the
	// 2-VC mappings that is VC 1; under Traditional4VC the per-class
	// mapping puts BestEffort and Background on VCs 2 and 3.
	if int(vc) < a.VCs() && vc >= a.VCFor(packet.BestEffort) {
		return pqueue.NewDropQueue[*packet.Staged](v.bound, v.tail, a.DeadlineAware())
	}
	return v.defaultPolicy.NewHostQueue(a, vc)
}
