// Package packet defines the unit of transfer in the simulated network:
// packets, their QoS header fields, and the traffic classes of the paper's
// workload (Table 1).
//
// Following the paper's architecture (§3), a packet carries exactly one QoS
// tag in its header — the deadline — plus fixed source routing information.
// Switches keep no per-flow state: everything a scheduler may inspect lives
// in the Packet header fields. The eligible time is used only inside the
// sending host and is not part of the wire header.
//
// Because end-host clocks are not synchronised, the deadline is not
// transmitted directly. When a packet leaves a node the header carries the
// time-to-deadline TTD = D − Tlocal; the next hop reconstructs a deadline
// against its own clock (§3.3). PackTTD and UnpackTTD implement this.
package packet

import (
	"fmt"

	"deadlineqos/internal/units"
)

// Class identifies one of the four workload traffic classes of Table 1.
type Class uint8

// The four traffic classes injected by every host (Table 1), each reserving
// 25% of the host's injection bandwidth in the paper's evaluation.
const (
	Control    Class = iota // small latency-critical control messages
	Multimedia              // MPEG-4 video streams, frame-based deadlines
	BestEffort              // self-similar internet-like traffic, higher weight
	Background              // self-similar internet-like traffic, lower weight
	NumClasses = 4
)

var classNames = [NumClasses]string{"Control", "Multimedia", "Best-effort", "Background"}

// String returns the class name as used in the paper's figures.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Regulated reports whether the class travels in the regulated VC, i.e. its
// bandwidth is reserved through admission control and it has absolute
// priority over best-effort traffic (§3.2).
func (c Class) Regulated() bool { return c == Control || c == Multimedia }

// VC identifies a virtual channel. The paper's proposals use two (VC 0
// regulated with absolute priority, VC 1 best-effort); the Traditional
// 4 VCs comparison architecture maps each traffic class to its own VC —
// the "many more VCs" alternative the paper's conclusion discusses. NumVCs
// is the maximum any architecture uses; architectures using fewer simply
// leave the higher VCs idle.
type VC uint8

// The two virtual channels of the paper's proposals.
const (
	VCRegulated  VC = 0
	VCBestEffort VC = 1
	NumVCs          = 4
)

// String names the VC.
func (v VC) String() string {
	switch v {
	case VCRegulated:
		return "VC-regulated"
	case VCBestEffort:
		return "VC-besteffort"
	default:
		return fmt.Sprintf("VC%d", uint8(v))
	}
}

// VCOf is the paper's two-VC class mapping: regulated classes share VC 0,
// best-effort classes share VC 1. Architectures may use a different
// mapping (see arch.VCFor); the mapping chosen at the source host travels
// in the packet header's VC field.
func VCOf(c Class) VC {
	if c.Regulated() {
		return VCRegulated
	}
	return VCBestEffort
}

// FlowID identifies a flow (a single connection with a fixed route and
// reserved parameters, §3).
type FlowID uint32

// HeaderSize is the wire overhead per packet: route pointer, deadline TTD
// field and header CRC, sized after the PCI AS unicast header.
const HeaderSize units.Size = 8

// Packet is one network-level packet. Fields are grouped into wire header
// fields (visible to switches), host-only fields, and instrumentation kept
// by the simulator's omniscient observer for statistics — the latter would
// not exist in hardware. The two flags sit in the padding after VC, which
// keeps the struct at 160 bytes, one of Go's size classes.
//
// Packets are recycled (see Pool): code handed a packet it does not own —
// a hook, a tracer, a control handler — may read it only during the call
// and must copy whatever it keeps.
type Packet struct {
	// Wire header fields.
	ID    uint64 // unique packet id (simulator-wide)
	Flow  FlowID // flow label
	Class Class  // traffic class
	VC    VC     // virtual channel, assigned at the source host
	// Corrupted marks a payload CRC mismatch accumulated in flight (set
	// by the fault model's bit-error process). Switches forward corrupted
	// packets untouched — only the destination NIC's end-to-end CRC check
	// detects and drops them.
	Corrupted bool
	// Sampled marks the packet as selected for lifecycle tracing
	// (instrumentation). It is decided once at generation (internal/trace
	// sampling hash) and rides along so every hop can test it with a
	// single bool load; retransmit copies inherit it by struct copy.
	Sampled  bool
	Src, Dst int        // endpoint indices
	Size     units.Size // total wire size, header included
	Seq      uint64     // per-flow sequence number, for delivery-order checks
	Deadline units.Time // cycle by which the packet should reach Dst (local clock)
	TTD      units.Time // time-to-deadline, valid only while in flight on a link
	Route    []int      // fixed source route: output port to take at hop i
	Hop      int        // current hop index into Route
	// Ctl is an opaque in-band control-plane payload (session
	// setup/teardown signalling, internal/session). It stands for the
	// message body a real control packet would carry: switches and links
	// never inspect it, and the destination NIC hands it to its control
	// handler after the normal delivery path. Never mutated once the
	// packet is created, so retransmit copies may share it.
	Ctl any

	// Host-only fields (not transmitted, §3.1).
	Eligible units.Time // earliest cycle the packet may enter the network
	// Value is the packet's worth to the application (flow value density ×
	// wire size, in milli-units so it stays an exact integer). Bounded
	// best-effort queues use it to decide what to shed under overload
	// (pqueue.DropQueue); it never influences flow-controlled scheduling.
	Value int64

	// Instrumentation (oracle time base, excluded from any scheduling).
	CreatedAt  units.Time // when the application generated the packet
	InjectedAt units.Time // when the first byte entered the network
	FrameID    uint64     // application frame/message this packet belongs to (0 = none)
	FrameParts int        // Parts(F): packets in that frame
}

// String renders a compact single-line description for traces and tests.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{id=%d flow=%d %s %d->%d size=%v dl=%v seq=%d}",
		p.ID, p.Flow, p.Class, p.Src, p.Dst, p.Size, p.Deadline, p.Seq)
}

// NextPort returns the output port to take at the current hop. It panics if
// the route is exhausted, which indicates a topology/routing bug.
func (p *Packet) NextPort() int {
	if p.Hop >= len(p.Route) {
		panic(fmt.Sprintf("packet %d: route exhausted at hop %d (route %v)", p.ID, p.Hop, p.Route))
	}
	return p.Route[p.Hop]
}

// Advance moves the route pointer past the current hop. Like the per-hop
// route pointer update in PCI AS source routing, this mutates a header
// field, so the header CRC must be recomputed anyway — which is the paper's
// argument for why the TTD rewrite adds no extra per-hop cost.
func (p *Packet) Advance() { p.Hop++ }

// PackTTD converts the node-local deadline into the in-flight TTD header
// field: TTD = D − Tlocal at the moment the packet leaves the node (§3.3).
func (p *Packet) PackTTD(localNow units.Time) {
	p.TTD = p.Deadline - localNow
}

// UnpackTTD reconstructs a deadline against the receiving node's clock:
// D = TTD + Tlocal. The header CRC covers the TTD field, so each rewrite
// costs one header CRC recomputation.
func (p *Packet) UnpackTTD(localNow units.Time) {
	p.Deadline = p.TTD + localNow
}

// Clock is a node-local clock. Each host and switch owns one; they share
// the simulation time base but may disagree by a constant skew, modelling
// unsynchronised hardware clocks. The TTD mechanism must tolerate this.
type Clock struct {
	// Base returns the global simulation time (the oracle clock).
	Base func() units.Time
	// Skew is this node's constant offset from the oracle clock.
	Skew units.Time
}

// Now returns the node-local time.
func (c *Clock) Now() units.Time { return c.Base() + c.Skew }
