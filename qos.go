// Package deadlineqos is a discrete-event simulation library reproducing
// "Deadline-based QoS Algorithms for High-performance Networks"
// (Martínez, Alfaro, Sánchez, Duato — IPDPS 2007).
//
// The paper adapts the Earliest-Deadline-First family of scheduling
// algorithms to high-speed interconnection networks: end hosts stamp each
// packet with a single deadline tag (a Virtual Clock variant), switches
// schedule by comparing only the deadlines of their FIFO queue heads, and a
// two-queue "take-over" buffer recovers most of the latency lost to order
// errors — at the hardware cost of plain FIFO memories and two virtual
// channels.
//
// This package is the public facade over the implementation packages in
// internal/: it re-exports everything a downstream user needs to build
// networks, run workloads, and regenerate the paper's evaluation.
//
// Quick start:
//
//	cfg := deadlineqos.DefaultConfig()      // the paper's 128-endpoint MIN
//	cfg.Arch = deadlineqos.Advanced2VC      // take-over queue architecture
//	cfg.Load = 1.0                          // 100% offered load
//	res, err := deadlineqos.Run(cfg)
//	if err != nil { ... }
//	fmt.Println(res.Summary())
//
// See examples/ for complete programs and internal/experiments for the
// harness that regenerates every table and figure of the paper.
package deadlineqos

import (
	"deadlineqos/internal/analytic"
	"deadlineqos/internal/arbiter"
	"deadlineqos/internal/arch"
	"deadlineqos/internal/coflow"
	"deadlineqos/internal/experiments"
	"deadlineqos/internal/faults"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/network"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/policy"
	"deadlineqos/internal/pqueue"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/units"
)

// Config describes one simulation run; see the field documentation in the
// underlying type. Construct with DefaultConfig or SmallConfig.
type Config = network.Config

// Results carries the metrics collected by a run.
type Results = network.Results

// Network is a built simulation (advanced use; Run covers the common case).
type Network = network.Network

// Arch selects the switch architecture under test.
type Arch = arch.Arch

// The paper's four switch architectures (§4.1), plus the 4-VC extension.
const (
	Traditional2VC = arch.Traditional2VC // PCI-AS-style 2 VCs, no deadlines
	IdealEDF       = arch.Ideal          // heap-ordered buffers (upper bound)
	Simple2VC      = arch.Simple2VC      // FIFO + deadline head comparison
	Advanced2VC    = arch.Advanced2VC    // FIFO + take-over queue (§3.4)
	// Traditional4VC is the extension architecture: one weighted VC per
	// traffic class, still deadline-blind — the "many more VCs"
	// alternative the paper's conclusion argues is unaffordable.
	Traditional4VC = arch.Traditional4VC
)

// Class identifies a workload traffic class (Table 1).
type Class = packet.Class

// The four traffic classes of the evaluation workload.
const (
	Control    = packet.Control
	Multimedia = packet.Multimedia
	BestEffort = packet.BestEffort
	Background = packet.Background
	NumClasses = packet.NumClasses
)

// Time is simulated time in cycles (1 cycle = 1 ns at the reference 8 Gb/s
// link rate).
type Time = units.Time

// Common durations.
const (
	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second
)

// Size is a data size in bytes.
type Size = units.Size

// Common sizes.
const (
	Byte     = units.Byte
	Kilobyte = units.Kilobyte
	Megabyte = units.Megabyte
)

// Bandwidth is a transmission rate in bytes per cycle.
type Bandwidth = units.Bandwidth

// GbpsToBandwidth converts gigabits per second to bytes per cycle.
func GbpsToBandwidth(gbps float64) Bandwidth { return units.GbpsToBandwidth(gbps) }

// Topology describes a network shape; see NewFoldedClos, NewKAryNTree,
// PaperMIN and SingleSwitch.
type Topology = topology.Topology

// PaperMIN returns the paper's evaluation network: a 128-endpoint folded
// perfect-shuffle MIN built from 16-port switches.
func PaperMIN() Topology { return topology.PaperMIN() }

// NewFoldedClos returns a two-level folded Clos (leaf/spine) network with
// the given leaf count, hosts per leaf, and spine count.
func NewFoldedClos(leaves, down, up int) (Topology, error) {
	return topology.NewFoldedClos(leaves, down, up)
}

// NewKAryNTree returns the k-ary n-tree folded butterfly with k^n hosts.
func NewKAryNTree(k, n int) (Topology, error) { return topology.NewKAryNTree(k, n) }

// SingleSwitch returns n hosts attached to one switch (for experiments on
// buffer behaviour in isolation).
func SingleSwitch(n int) Topology { return &topology.SingleSwitch{N: n} }

// DefaultConfig returns the paper's evaluation parameters (§4.1/§4.2):
// the 128-endpoint MIN, 8 Gb/s links, 8 KB buffers per VC, 2 KB MTU, the
// Table 1 traffic mix, 20 µs eligible-time lead and 10 ms video target.
func DefaultConfig() Config { return network.DefaultConfig() }

// SmallConfig returns a 16-host configuration that preserves the paper's
// qualitative behaviour at a fraction of the runtime (used by tests and
// benchmarks).
func SmallConfig() Config { return network.SmallConfig() }

// New builds a network from cfg without running it (advanced use: custom
// drivers can schedule their own traffic through Network.Engine).
func New(cfg Config) (*Network, error) { return network.New(cfg) }

// Run builds and executes one simulation, returning its measurements.
func Run(cfg Config) (*Results, error) { return network.Run(cfg) }

// ExperimentOptions selects scale and coverage for the experiment suite
// (see internal/experiments for the per-figure functions).
type ExperimentOptions = experiments.Options

// QuickExperiments returns reduced-scale experiment options.
func QuickExperiments() ExperimentOptions { return experiments.Quick() }

// PaperExperiments returns full-scale (128-endpoint) experiment options.
func PaperExperiments() ExperimentOptions { return experiments.Paper() }

// TakeOverQueue is the paper's two-FIFO buffer structure (§3.4), exported
// for direct experimentation; see examples/takeover.
type TakeOverQueue = pqueue.TakeOverQueue

// NewTakeOverQueue returns an empty take-over buffer with the given byte
// capacity; track enables the order-error oracle.
func NewTakeOverQueue(capacity Size, track bool) *TakeOverQueue {
	return pqueue.NewTakeOver(capacity, track)
}

// Buffer is the interface all switch-port buffer disciplines implement.
type Buffer = pqueue.Buffer

// NewFIFOQueue returns a plain FIFO buffer (the Traditional and Simple
// architectures' discipline) for buffer-level experiments.
func NewFIFOQueue(capacity Size, track bool) Buffer {
	return pqueue.NewFIFO[*packet.Packet](capacity, track)
}

// NewHeapQueue returns a deadline-ordered buffer (the Ideal architecture's
// discipline).
func NewHeapQueue(capacity Size, track bool) Buffer {
	return pqueue.NewHeap[*packet.Packet](capacity, track)
}

// HostQueue is a NIC injection queue, which a Policy builds per VC. It
// holds staged records: a packet waits at its source NIC as a Staged
// record until the link takes it.
type HostQueue = policy.HostQueue

// Staged is the record a packet waits in at its source NIC; a Policy's
// PickInject checks link credits against the record at a queue's head.
type Staged = packet.Staged

// NewHostFIFOQueue returns a FIFO injection queue of the given byte
// capacity, for a Policy that stages in arrival order.
func NewHostFIFOQueue(capacity Size) HostQueue {
	return pqueue.NewFIFO[*packet.Staged](capacity, false)
}

// VC identifies a virtual channel of a port (0..NumVCs-1; the deadline-aware
// architectures map classes onto 2 VCs, Traditional4VC onto all 4).
type VC = packet.VC

// NumVCs is the number of virtual channels every port provisions.
const NumVCs = packet.NumVCs

// Policy is a pluggable scheduling policy: it chooses the host injection
// queue discipline, the NIC's next-VC pick, and the switch output-port
// arbitration. Custom policies implement this interface out of tree; see
// examples/fifopolicy and the contract in DESIGN.md §14.
type Policy = policy.Policy

// Arbiter makes one switch output port's grant decisions for a Policy.
type Arbiter = policy.Arbiter

// ArbiterConfig carries what a switch output port knows when a Policy
// builds its Arbiter.
type ArbiterConfig = policy.ArbiterConfig

// ArbiterCandidate is one crossbar request offered to an Arbiter: the head
// packet of a non-busy input that fits the output buffer.
type ArbiterCandidate = arbiter.Candidate

// PolicyHostQueueCap is the unbounded host injection-queue capacity the
// built-in policies use (host memory, effectively infinite next to switch
// buffers).
const PolicyHostQueueCap = policy.HostQueueCap

// DefaultPolicy returns the paper's EDF-takeover scheduling policy —
// byte-identical to leaving Config.Policy nil.
func DefaultPolicy() Policy { return policy.Default() }

// CoflowEDFPolicy returns the coflow-level EDF policy: the default data
// path, with every packet of an admitted collective round stamped with the
// round's shared deadline (see internal/coflow).
func CoflowEDFPolicy() Policy { return policy.CoflowEDF() }

// ValueDropPolicy returns the value-aware best-effort dropping policy:
// best-effort injection queues bounded at bound bytes (0 = default),
// evicting the lowest value-density packet on overflow — or the newest
// arrival when tail is true (the classic tail-drop baseline).
func ValueDropPolicy(bound Size, tail bool) Policy { return policy.ValueDrop(bound, tail) }

// ParsePolicy resolves a built-in policy name ("" = default); see
// PolicyNames.
func ParsePolicy(name string) (Policy, error) { return policy.Parse(name) }

// PolicyNames lists the built-in policy names ParsePolicy accepts.
func PolicyNames() []string { return policy.Names() }

// CoflowConfig attaches the ring collective workload to a run
// (Config.Coflows): Rounds rounds of Chunk-sized neighbour exchanges,
// admitted through the CAC in σ order under per-round deadlines.
type CoflowConfig = coflow.Config

// CoflowResults is the collective-workload accounting of Results.Coflows.
type CoflowResults = coflow.Results

// Packet is the unit of transfer; exported for buffer-level experiments.
type Packet = packet.Packet

// FlowID identifies a flow (a connection with a fixed route).
type FlowID = packet.FlowID

// FaultPlan is a deterministic fault schedule (link flaps, bandwidth
// derating, bit errors) injected into a run via Config.Faults; identical
// seeds and plans replay identical fault traces. See examples/chaos.
type FaultPlan = faults.Plan

// FaultEvent is one timed fault of a plan.
type FaultEvent = faults.Event

// FaultLinkID addresses a switch output link in a fault plan, matching
// Config.DegradedLinks coordinates.
type FaultLinkID = faults.LinkID

// FaultTraceEntry is one executed fault event of Results.FaultTrace.
type FaultTraceEntry = faults.TraceEntry

// The fault event kinds.
const (
	LinkDown   = faults.LinkDown // link drops; in-flight packets are lost
	LinkUp     = faults.LinkUp   // link recovers; arbitration resumes
	LinkDerate = faults.Derate   // bandwidth set to Scale x nominal
)

// FaultRandomConfig bounds the fault processes RandomFaultPlan draws.
type FaultRandomConfig = faults.RandomConfig

// RandomFaultPlan draws a reproducible random fault plan over the given
// links and time horizon.
func RandomFaultPlan(seed uint64, links []FaultLinkID, horizon Time, cfg FaultRandomConfig) *FaultPlan {
	return faults.RandomPlan(seed, links, horizon, cfg)
}

// Reliability configures the hosts' end-to-end retransmission layer
// (Config.Reliability): CRC drop at the receiver, NAKs, timeout/backoff
// retransmission with deadline re-stamping, demotion to best-effort.
type Reliability = hostif.Reliability

// Conservation is the run-level packet accounting of Results.Conservation;
// its Check method is the simulator's end-to-end conservation invariant.
type Conservation = faults.Conservation

// UnloadedPacketLatency returns the closed-form end-to-end latency of a
// packet of the given wire size crossing switchHops switches on an idle
// network with the given link/crossbar bandwidths and per-link propagation
// delay — the physical floor every simulated latency is bounded by (see
// internal/analytic).
func UnloadedPacketLatency(wire Size, switchHops int, linkBW, xbarBW Bandwidth, prop Time) Time {
	return analytic.UnloadedPacketLatency(wire, switchHops, linkBW, xbarBW, prop)
}
