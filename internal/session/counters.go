package session

import (
	"deadlineqos/internal/stats"
	"deadlineqos/internal/units"
)

// Counters accumulates session-subsystem events. Every simulation shard
// owns one instance (clients and the manager add to the instance of the
// shard they run on); all fields are sums or exact mergeable aggregates,
// so folding per-shard counters together is order-independent and a
// sharded run reports bit-identical values to a sequential one.
type Counters struct {
	// Client side.
	Started       uint64 // sessions generated
	SetupsSent    uint64 // Setup messages emitted (including retries)
	Retries       uint64 // Setup re-sends after a reject or timeout
	Timeouts      uint64 // response timeouts
	Granted       uint64 // sessions admitted by the CAC
	RejectsSeen   uint64 // Reject messages received
	Downgraded    uint64 // sessions that gave up and went best effort
	Finished      uint64 // sessions that reached the end of their hold time
	TeardownsSent uint64 // Teardown messages emitted

	// CAC side. Each endpoint counts its own accepted, rejected, revoked
	// and shed setups; the Manager's BuildResults sums them.
	DupSetups        uint64 // duplicate Setups re-granted idempotently
	Released         uint64 // Teardowns that released a reservation record
	StaleTeardowns   uint64 // Teardowns for unknown (already-revoked) sessions
	Rerouted         uint64 // revoked reservations re-admitted on another path
	RevokeDowngrades uint64 // revoked reservations with no surviving path

	// Switch/port-failure repair activity (subset of the above where the
	// trigger was a SwitchDown or PortDown rather than a derate).
	SwitchRevoked     uint64 // sessions stranded by a dead switch or cut cable
	SwitchRerouted    uint64 // stranded sessions moved to a surviving route
	SwitchDowngraded  uint64 // stranded reservations downgraded to best effort
	SwitchUnreachable uint64 // stranded sessions whose host pair is partitioned

	// Delegated control plane (all zero in centralised runs).
	LocalGrants     uint64 // setups admitted by a pod delegate within its lease
	Escalated       uint64 // setups a delegate forwarded to the root
	Retargets       uint64 // clients redirected to a new CAC target
	LeaseGrants     uint64 // lease grants and growths the root issued
	LeaseRequests   uint64 // lease growth requests delegates sent
	LeaseReturns    uint64 // lease fractions returned to the root
	LeaseDenied     uint64 // growth requests the root refused
	Promotions      uint64 // standby delegates promoted after a CAC outage
	Reclaims        uint64 // pod leases the root reclaimed (no live standby)
	FailoverReplays uint64 // setups re-granted from a standby's replica
	LeaseRenewals   uint64 // renewal heartbeats the root acked
	BreakerOpens    uint64 // delegates that declared the root dead
	BreakerRejects  uint64 // setups rejected locally while the root was dark

	// FailoverHist is the control-plane time-to-recovery distribution:
	// CAC-killing fault instant to the promoted standby finishing lease
	// reconciliation (in-band Promote delivery included).
	FailoverHist *stats.Histogram

	// Setup latency: first Setup sent to Grant received, measured by the
	// client across the in-band round trip (fabric queueing included).
	SetupLatency stats.TimeSeries
	SetupLatHist *stats.Histogram

	// RepairLatHist is the client-observed time-to-repair distribution:
	// switch/port fault time to the in-band arrival of the replacement
	// route.
	RepairLatHist *stats.Histogram

	// Delivered session traffic inside the measurement window.
	DataBytes   units.Size
	DataPackets uint64
	SigBytes    units.Size
	SigPackets  uint64
}

// NewCounters returns an empty Counters.
func NewCounters() *Counters {
	return &Counters{
		SetupLatHist:  stats.NewHistogram(),
		RepairLatHist: stats.NewHistogram(),
		FailoverHist:  stats.NewHistogram(),
	}
}

// Merge folds other into c (exact, order-independent).
func (c *Counters) Merge(other *Counters) {
	c.Started += other.Started
	c.SetupsSent += other.SetupsSent
	c.Retries += other.Retries
	c.Timeouts += other.Timeouts
	c.Granted += other.Granted
	c.RejectsSeen += other.RejectsSeen
	c.Downgraded += other.Downgraded
	c.Finished += other.Finished
	c.TeardownsSent += other.TeardownsSent
	c.DupSetups += other.DupSetups
	c.Released += other.Released
	c.StaleTeardowns += other.StaleTeardowns
	c.Rerouted += other.Rerouted
	c.RevokeDowngrades += other.RevokeDowngrades
	c.SwitchRevoked += other.SwitchRevoked
	c.SwitchRerouted += other.SwitchRerouted
	c.SwitchDowngraded += other.SwitchDowngraded
	c.SwitchUnreachable += other.SwitchUnreachable
	c.LocalGrants += other.LocalGrants
	c.Escalated += other.Escalated
	c.Retargets += other.Retargets
	c.LeaseGrants += other.LeaseGrants
	c.LeaseRequests += other.LeaseRequests
	c.LeaseReturns += other.LeaseReturns
	c.LeaseDenied += other.LeaseDenied
	c.Promotions += other.Promotions
	c.Reclaims += other.Reclaims
	c.FailoverReplays += other.FailoverReplays
	c.LeaseRenewals += other.LeaseRenewals
	c.BreakerOpens += other.BreakerOpens
	c.BreakerRejects += other.BreakerRejects
	c.SetupLatency.Merge(&other.SetupLatency)
	c.SetupLatHist.Merge(other.SetupLatHist)
	c.RepairLatHist.Merge(other.RepairLatHist)
	c.FailoverHist.Merge(other.FailoverHist)
	c.DataBytes += other.DataBytes
	c.DataPackets += other.DataPackets
	c.SigBytes += other.SigBytes
	c.SigPackets += other.SigPackets
}

// Results is the session subsystem's run summary, reported in
// network.Results and fingerprinted by the determinism cross-checks (all
// fields are deterministic at any shard count).
type Results struct {
	Started       uint64 `json:"started"`
	SetupsSent    uint64 `json:"setups_sent"`
	Retries       uint64 `json:"retries"`
	Timeouts      uint64 `json:"timeouts"`
	Granted       uint64 `json:"granted"`
	Accepted      uint64 `json:"accepted"`
	Rejected      uint64 `json:"rejected"`
	RejectsSeen   uint64 `json:"rejects_seen"`
	Downgraded    uint64 `json:"downgraded"`
	Finished      uint64 `json:"finished"`
	TeardownsSent uint64 `json:"teardowns_sent"`
	Released      uint64 `json:"released"`
	StaleTears    uint64 `json:"stale_teardowns"`
	DupSetups     uint64 `json:"dup_setups"`

	Revoked          uint64 `json:"revoked"`
	Rerouted         uint64 `json:"rerouted"`
	RevokeDowngrades uint64 `json:"revoke_downgrades"`

	// Switch/port-failure repair activity.
	SwitchRevoked     uint64 `json:"switch_revoked"`
	SwitchRerouted    uint64 `json:"switch_rerouted"`
	SwitchDowngraded  uint64 `json:"switch_downgraded"`
	SwitchUnreachable uint64 `json:"switch_unreachable"`

	// Client-observed time-to-repair after switch/port failures (fault
	// instant to in-band arrival of the replacement route).
	RepairCount uint64     `json:"repair_count"`
	RepairP50   units.Time `json:"repair_p50"`
	RepairP99   units.Time `json:"repair_p99"`

	// AcceptRatio is granted / (granted + downgraded): the fraction of
	// decided sessions that ended up with a reservation (or a best-effort
	// grant for unregulated profiles) instead of giving up.
	AcceptRatio float64 `json:"accept_ratio"`

	// Setup latency over the in-band round trip.
	SetupCount  uint64     `json:"setup_count"`
	SetupMeanNs float64    `json:"setup_mean_ns"`
	SetupP50    units.Time `json:"setup_p50"`
	SetupP99    units.Time `json:"setup_p99"`

	// ReservedUtil is the time integral of CAC-reserved session bandwidth
	// over the measurement window, as a fraction of total injection
	// capacity; AchievedUtil is what the granted sessions actually
	// delivered in the same window.
	ReservedUtil float64 `json:"reserved_util"`
	AchievedUtil float64 `json:"achieved_util"`

	DataBytes   units.Size `json:"data_bytes"`
	DataPackets uint64     `json:"data_packets"`
	SigBytes    units.Size `json:"sig_bytes"`
	SigPackets  uint64     `json:"sig_packets"`

	// State at the simulation horizon.
	ActiveAtStop   int     `json:"active_at_stop"`
	ReservedAtStop float64 `json:"reserved_bw_at_stop"`

	// ControlPlane summarises the survivable admission control plane
	// (non-nil whenever sessions ran; mostly zero in centralised mode).
	ControlPlane *ControlPlane `json:"control_plane,omitempty"`
}

// ControlPlane is the survivable-CAC summary: delegated admissions, lease
// traffic, overload shedding, and failover recovery. Fingerprinted by the
// determinism cross-checks like the rest of Results.
type ControlPlane struct {
	Delegated bool `json:"delegated"`
	Pods      int  `json:"pods"`
	Delegates int  `json:"delegates"`

	LocalGrants     uint64 `json:"local_grants"`
	Escalated       uint64 `json:"escalated"`
	Shed            uint64 `json:"shed"`
	Retargets       uint64 `json:"retargets"`
	LeaseGrants     uint64 `json:"lease_grants"`
	LeaseRequests   uint64 `json:"lease_requests"`
	LeaseReturns    uint64 `json:"lease_returns"`
	LeaseDenied     uint64 `json:"lease_denied"`
	Promotions      uint64 `json:"promotions"`
	Reclaims        uint64 `json:"reclaims"`
	FailoverReplays uint64 `json:"failover_replays"`
	LeaseRenewals   uint64 `json:"lease_renewals"`
	BreakerOpens    uint64 `json:"breaker_opens"`
	BreakerRejects  uint64 `json:"breaker_rejects"`

	// Control-plane time-to-recovery: CAC fault to restored pod admission.
	FailoverCount uint64     `json:"failover_count"`
	FailoverP50   units.Time `json:"failover_p50"`
	FailoverP99   units.Time `json:"failover_p99"`
}
