// Package session implements the dynamic flow-lifecycle subsystem: flows
// no longer exist only as static reservations made in network setup, but
// arrive, hold, and depart at runtime, negotiating admission with the
// centralised CAC (internal/admission) over the simulated fabric itself.
//
// Each host runs a Client that generates Poisson (optionally flash-crowd)
// session arrivals. A session setup or teardown is an in-band
// control-plane message: a Control-class packet stamped with the paper's
// maximum-priority deadline rule (BWavg = link bandwidth, §3.1) that
// travels through the switches to the Manager host and back. Admission
// latency is therefore a measured quantity — it includes real queueing in
// the fabric — not a modelling assumption.
//
// Protocol (see DESIGN.md §10):
//
//	Client                        Manager (CAC)
//	  |------- Setup ---------------->|   Reserve (regulated classes)
//	  |<------ Grant{Route} ----------|   or
//	  |<------ Reject ----------------|   retry with exponential backoff,
//	  |                               |   then downgrade to best effort
//	  |------- Teardown ------------->|   Release
//	  |<------ Revoke{Route} ---------|   link derated: re-admitted path
//	  |<------ Revoke{Downgrade} -----|   link derated: no surviving path
//
// Determinism: clients and the manager run entirely inside host engine
// events (arrival timers, packet deliveries), so the subsystem inherits
// the sharded-execution guarantees of internal/parsim — a churn run is
// byte-identical at any shard count.
package session

import (
	"fmt"
	"math"
	"sort"

	"deadlineqos/internal/packet"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/units"
)

// Op is the control-plane message opcode.
type Op uint8

// Control-plane opcodes.
const (
	OpSetup    Op = iota + 1 // client -> CAC: admit this session
	OpGrant                  // CAC -> client: admitted, route enclosed
	OpReject                 // CAC -> client: no capacity, retry or downgrade
	OpTeardown               // client -> CAC: session over, release bandwidth
	OpRevoke                 // CAC -> client: reservation moved (Route) or dropped (Downgrade)

	// Delegated control plane (DESIGN.md §12). Lease and failover traffic
	// rides the same in-band signalling flows as setups.
	OpLeaseGrant   // root -> delegate: lease Frac of the pod's link capacity
	OpLeaseRequest // delegate -> root: grow the lease to Frac
	OpLeaseReturn  // delegate -> root: lease shrunk to Frac (capacity freed)
	OpPromote      // root -> standby: take over the pod's lease (failover)
	OpRetarget     // root -> client: send future signalling to Target
	OpSyncGrant    // primary -> standby: replicate one granted session
	OpSyncRelease  // primary -> standby: replicated session released
	OpLeaseRenew   // delegate -> root: heartbeat; root re-affirms with OpLeaseGrant
)

var opNames = [...]string{"?", "Setup", "Grant", "Reject", "Teardown", "Revoke",
	"LeaseGrant", "LeaseRequest", "LeaseReturn", "Promote", "Retarget",
	"SyncGrant", "SyncRelease", "LeaseRenew"}

// String names the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Msg is the in-band control-plane message body. It rides a Control-class
// packet's Ctl field through the fabric; SigMsgSize models its wire size.
type Msg struct {
	Op      Op
	Session uint64 // session identity, unique network-wide
	Attempt int    // setup attempt number (0 = first try)

	// Setup fields (client -> CAC).
	Src, Dst int
	BW       units.Bandwidth
	Class    packet.Class

	// Grant/Revoke fields (CAC -> client).
	Route []int // admitted route for the data flow
	// Downgrade on a Revoke tells the client its reservation could not be
	// re-admitted after a fault: continue as best effort.
	Downgrade bool
	// DownAt, on a Revoke caused by a switch or port failure, carries the
	// fault's event time. The client measures time-to-repair as the
	// in-band delivery time of the new route minus DownAt — the real
	// service-interruption window, fabric queueing included. Zero on
	// derate-driven revokes. On a Promote it carries the CAC fault's event
	// time, the base of the control-plane time-to-recovery measurement.
	DownAt units.Time

	// Delegated control plane fields.
	//
	// Frac is the lease fraction carried by lease opcodes and Promote.
	Frac float64
	// Target, on a Retarget, is the host the client must signal next
	// (-1 = the root manager).
	Target int
	// RetryAfter, on a Reject from a shedding CAC, is the control queue's
	// drain-time hint: retrying sooner is pointless. The client uses
	// max(exponential backoff, RetryAfter).
	RetryAfter units.Time
	// Local marks a Grant issued by the pod delegate; the teardown must go
	// back to the pod CAC rather than the root.
	Local bool
}

// Profile describes one entry of the per-class session mix.
type Profile struct {
	// Weight is the relative arrival share of this profile (weights need
	// not sum to 1).
	Weight float64
	// Class is the data traffic's class. Regulated classes (Control,
	// Multimedia) reserve bandwidth through the CAC; best-effort classes
	// are granted a hashed fixed route without reservation.
	Class packet.Class
	// BW is the requested average bandwidth (bytes per ns); the data
	// source emits CBR at exactly this rate once granted.
	BW units.Bandwidth
	// MsgSize is the payload of each data message.
	MsgSize units.Size
	// HoldMean overrides Config.HoldMean for this profile when positive.
	HoldMean units.Time
}

// Config parameterises the session subsystem. The zero value of each
// field selects the default noted on it (see WithDefaults); Profiles
// defaults to DefaultProfiles.
type Config struct {
	// Manager is the host index running the centralised CAC endpoint
	// (default 0). It generates no sessions of its own.
	Manager int
	// InterArrival is the mean per-host session inter-arrival time
	// (Poisson arrivals, exponential gaps; default 500 µs).
	InterArrival units.Time
	// HoldMean is the mean session hold time, exponential, measured from
	// the grant (default 2 ms).
	HoldMean units.Time
	// Profiles is the session mix (default DefaultProfiles).
	Profiles []Profile
	// SigMsgSize is the signalling message payload size (default 64 B).
	SigMsgSize units.Size
	// MaxRetries bounds setup retries after a reject or timeout before
	// the session downgrades to best effort (default 3; negative
	// disables retries).
	MaxRetries int
	// RetryBackoff is the base retry delay, doubled per attempt
	// (default 50 µs).
	RetryBackoff units.Time
	// RespTimeout is how long a client waits for a setup response before
	// treating the attempt as lost (default 500 µs).
	RespTimeout units.Time
	// FlashFactor, when > 1, multiplies the arrival rate during the
	// window [FlashAt, FlashAt+FlashLen) — a flash crowd.
	FlashFactor float64
	FlashAt     units.Time
	FlashLen    units.Time

	// Delegation enables the survivable control plane: a per-pod delegate
	// CAC on each leaf switch's lowest-indexed host holds a revocable
	// capacity lease over the pod's links and admits intra-pod setups one
	// hop away; the root CAC arbitrates inter-pod capacity, grows/reclaims
	// leases, and promotes the pod's standby delegate when a switch or
	// port fault kills the primary's attachment (default off).
	Delegation bool
	// LeaseFrac is each delegate's initial lease: the fraction of its
	// pod's host-link capacity it may admit locally (default 0.5).
	LeaseFrac float64
	// LeaseStep is the lease growth granularity when a delegate's lease
	// runs full (default 0.2); leases never exceed MaxLeaseFrac.
	LeaseStep float64
	// LocalFrac biases each client's destination draw: with this
	// probability the destination is a same-pod host (default 0 =
	// uniform). Zero leaves the client random streams byte-identical to
	// earlier revisions.
	LocalFrac float64
	// CtlService models the CAC host's per-setup processing time. Zero
	// (the default) disables the bounded control queue: setups are served
	// at delivery, as before.
	CtlService units.Time
	// CtlQueueCap bounds the CAC control queue when CtlService > 0
	// (default 64). Setups arriving beyond it are shed with a
	// reject-with-backoff carrying the queue's drain time, instead of
	// queueing without bound.
	CtlQueueCap int
	// LeaseRenew is the delegates' lease-renewal heartbeat interval
	// (default 250 µs). The heartbeat doubles as the root-failure
	// detector: a delegate that misses two consecutive renewal acks
	// opens its escalation breaker and rejects inter-pod setups locally
	// instead of injecting them towards a dead root — sustained traffic
	// to a dead host would otherwise tree-saturate the Control VC
	// fabric-wide, starving even pod-local admission.
	LeaseRenew units.Time
}

// MaxLeaseFrac caps how much of a pod's capacity the root may lease away;
// the remainder keeps inter-pod reservations admissible.
const MaxLeaseFrac = 0.9

// DefaultProfiles is the default session mix: mostly multimedia streams,
// some small control sessions, and a best-effort tail. Bandwidths are in
// bytes/ns (0.05 = 5% of the default 8 Gb/s link).
func DefaultProfiles() []Profile {
	return []Profile{
		{Weight: 0.5, Class: packet.Multimedia, BW: 0.05, MsgSize: 1466},
		{Weight: 0.3, Class: packet.Control, BW: 0.01, MsgSize: 256},
		{Weight: 0.2, Class: packet.BestEffort, BW: 0.03, MsgSize: 1000},
	}
}

// WithDefaults returns a copy with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.InterArrival == 0 {
		c.InterArrival = 500 * units.Microsecond
	}
	if c.HoldMean == 0 {
		c.HoldMean = 2 * units.Millisecond
	}
	if c.SigMsgSize == 0 {
		c.SigMsgSize = 64
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 50 * units.Microsecond
	}
	if c.RespTimeout == 0 {
		c.RespTimeout = 500 * units.Microsecond
	}
	if len(c.Profiles) == 0 {
		c.Profiles = DefaultProfiles()
	}
	if c.LeaseFrac == 0 {
		c.LeaseFrac = 0.5
	}
	if c.LeaseStep == 0 {
		c.LeaseStep = 0.2
	}
	if c.CtlQueueCap == 0 {
		c.CtlQueueCap = 64
	}
	if c.LeaseRenew == 0 {
		c.LeaseRenew = 250 * units.Microsecond
	}
	return c
}

// Validate checks an already-defaulted Config against a host count.
func (c Config) Validate(hosts int) error {
	if hosts < 2 {
		return fmt.Errorf("session: need at least 2 hosts, have %d", hosts)
	}
	if hosts > maxHosts {
		return fmt.Errorf("session: %d hosts exceed the flow-id plan's limit %d", hosts, maxHosts)
	}
	if c.Manager < 0 || c.Manager >= hosts {
		return fmt.Errorf("session: manager host %d out of range [0,%d)", c.Manager, hosts)
	}
	if c.InterArrival <= 0 || c.HoldMean <= 0 {
		return fmt.Errorf("session: non-positive inter-arrival %v or hold %v", c.InterArrival, c.HoldMean)
	}
	if c.SigMsgSize <= 0 {
		return fmt.Errorf("session: non-positive signalling size %v", c.SigMsgSize)
	}
	if c.RetryBackoff <= 0 || c.RespTimeout <= 0 {
		return fmt.Errorf("session: non-positive backoff %v or timeout %v", c.RetryBackoff, c.RespTimeout)
	}
	if c.FlashFactor != 0 && c.FlashFactor < 1 {
		return fmt.Errorf("session: flash factor %v must be 0 (off) or >= 1", c.FlashFactor)
	}
	if c.FlashLen < 0 {
		return fmt.Errorf("session: negative flash window %v", c.FlashLen)
	}
	if c.LeaseFrac <= 0 || c.LeaseFrac > MaxLeaseFrac {
		return fmt.Errorf("session: lease fraction %v outside (0, %v]", c.LeaseFrac, MaxLeaseFrac)
	}
	if c.LeaseStep <= 0 || c.LeaseStep >= 1 {
		return fmt.Errorf("session: lease step %v outside (0, 1)", c.LeaseStep)
	}
	if c.LocalFrac < 0 || c.LocalFrac > 1 {
		return fmt.Errorf("session: local fraction %v outside [0, 1]", c.LocalFrac)
	}
	if c.CtlService < 0 {
		return fmt.Errorf("session: negative control service time %v", c.CtlService)
	}
	if c.CtlQueueCap < 1 {
		return fmt.Errorf("session: control queue capacity %d below 1", c.CtlQueueCap)
	}
	if c.LeaseRenew <= 0 {
		return fmt.Errorf("session: non-positive lease renew interval %v", c.LeaseRenew)
	}
	if len(c.Profiles) == 0 {
		return fmt.Errorf("session: empty profile mix")
	}
	var total float64
	for i, p := range c.Profiles {
		if !(p.Weight > 0) || math.IsInf(p.Weight, 0) {
			return fmt.Errorf("session: profile %d weight %v must be positive and finite", i, p.Weight)
		}
		if p.BW <= 0 {
			return fmt.Errorf("session: profile %d non-positive bandwidth %v", i, p.BW)
		}
		if p.MsgSize <= 0 {
			return fmt.Errorf("session: profile %d non-positive message size %v", i, p.MsgSize)
		}
		if p.HoldMean < 0 {
			return fmt.Errorf("session: profile %d negative hold mean %v", i, p.HoldMean)
		}
		if int(p.Class) >= packet.NumClasses {
			return fmt.Errorf("session: profile %d unknown class %d", i, p.Class)
		}
		total += p.Weight
	}
	if !(total > 0) || math.IsInf(total, 0) {
		return fmt.Errorf("session: profile weights sum to %v", total)
	}
	return nil
}

// Flow-id plan: session flows live far above the static flow ids the
// network provisions at setup (small sequential integers) so the two can
// never collide. Signalling flows are per host pair with the manager;
// data flows encode (host, per-host session sequence).
const (
	sigUpBase         packet.FlowID = 0x4000_0000 // client h -> root manager
	sigPodUpBase      packet.FlowID = 0x4200_0000 // client h -> pod primary delegate
	sigPodAltUpBase   packet.FlowID = 0x4300_0000 // client h -> pod standby delegate
	sigPodDownBase    packet.FlowID = 0x4400_0000 // pod primary delegate -> client h
	sigPodAltDownBase packet.FlowID = 0x4600_0000 // pod standby delegate -> client h
	sigDownBase       packet.FlowID = 0x4800_0000 // manager -> client h
	dataBase          packet.FlowID = 0x5000_0000 // session data flows

	// maxHosts bounds host indices so dataBase | h<<16 stays inside the
	// 32-bit flow-id space (and every signalling family inside its gap).
	maxHosts = 1 << 14
	// maxSessionsPerHost bounds the per-host session sequence (16 bits in
	// the data-flow id).
	maxSessionsPerHost = 1 << 16
)

// SigUp returns the id of host h's client->manager signalling flow.
func SigUp(h int) packet.FlowID { return sigUpBase + packet.FlowID(h) }

// SigDown returns the id of the manager->client-h signalling flow.
func SigDown(h int) packet.FlowID { return sigDownBase + packet.FlowID(h) }

// SigPodUp returns the id of host h's client->pod-primary signalling flow.
func SigPodUp(h int) packet.FlowID { return sigPodUpBase + packet.FlowID(h) }

// SigPodAltUp returns the id of host h's client->pod-standby signalling
// flow.
func SigPodAltUp(h int) packet.FlowID { return sigPodAltUpBase + packet.FlowID(h) }

// SigPodDown returns the id of the pod-primary->client-h signalling flow.
func SigPodDown(h int) packet.FlowID { return sigPodDownBase + packet.FlowID(h) }

// SigPodAltDown returns the id of the pod-standby->client-h signalling
// flow.
func SigPodAltDown(h int) packet.FlowID { return sigPodAltDownBase + packet.FlowID(h) }

// DataFlowID returns the data-flow id of host h's seq-th session.
func DataFlowID(h int, seq uint32) packet.FlowID {
	return dataBase | packet.FlowID(h)<<16 | packet.FlowID(seq)
}

// IsSignalling reports whether id is a session signalling flow.
func IsSignalling(id packet.FlowID) bool { return id >= sigUpBase && id < dataBase }

// IsSessionData reports whether id is a dynamic session data flow.
func IsSessionData(id packet.FlowID) bool { return id >= dataBase }

// sessionID builds the network-unique session identity of host h's seq-th
// session.
func sessionID(h int, seq uint32) uint64 { return uint64(h+1)<<32 | uint64(seq) }

// Pod groups the hosts attached to one leaf switch, plus the delegate CAC
// placement the delegated control plane uses for it.
type Pod struct {
	// Leaf is the pod's leaf switch (every member host attaches to it).
	Leaf int
	// Hosts lists the pod's hosts, ascending (the manager included when it
	// lives here — it receives data but never signals a delegate).
	Hosts []int
	// Primary is the pod's delegate CAC host: the lowest-indexed
	// non-manager host, or -1 when the pod has fewer than two non-manager
	// hosts (such pods signal the root directly).
	Primary int
	// Standby is the failover delegate (next non-manager host), -1 when
	// the pod has none.
	Standby int
}

// PodPlan computes the deterministic pod and delegate layout for a
// topology: hosts grouped by leaf switch in ascending leaf order. Both the
// network wiring and tests derive placement from this single function.
func PodPlan(topo topology.Topology, manager int) []Pod {
	byLeaf := make(map[int][]int)
	var leaves []int
	for h := 0; h < topo.Hosts(); h++ {
		sw, _ := topo.HostPort(h)
		if _, seen := byLeaf[sw]; !seen {
			leaves = append(leaves, sw)
		}
		byLeaf[sw] = append(byLeaf[sw], h)
	}
	sort.Ints(leaves)
	pods := make([]Pod, 0, len(leaves))
	for _, leaf := range leaves {
		p := Pod{Leaf: leaf, Hosts: byLeaf[leaf], Primary: -1, Standby: -1}
		var elig []int
		for _, h := range p.Hosts {
			if h != manager {
				elig = append(elig, h)
			}
		}
		// A delegate needs at least one other pod client to serve.
		if len(elig) >= 2 {
			p.Primary = elig[0]
			if len(elig) >= 3 {
				p.Standby = elig[1]
			}
		}
		pods = append(pods, p)
	}
	return pods
}

// LivenessBound returns the longest a session may legally remain in the
// signalling state: every setup terminates (grant, downgrade, or
// unreachable-downgrade) within this horizon even when every control
// packet is discarded by a dying switch, because the response timers and
// capped retry backoffs are engine events, not fabric deliveries. The soak
// watchdog flags any pending session older than this.
func (c Config) LivenessBound() units.Time {
	r := c.MaxRetries
	if r < 0 {
		r = 0
	}
	bound := units.Time(r+1) * c.RespTimeout
	for a := 1; a <= r; a++ {
		bound += backoffFor(c.RetryBackoff, a)
	}
	if c.CtlService > 0 {
		// A shedding CAC may stretch each backoff to its drain-time hint.
		bound += units.Time(r) * units.Time(c.CtlQueueCap+1) * c.CtlService
	}
	return bound + units.Microsecond
}
