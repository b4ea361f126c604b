package network

// Availability reporting under switch and port failures: the per-shard
// counters the route repairs of the fault replay (replay.go) feed, and
// their merge into Results.Availability, plus the structural audit the
// soak harness runs between epochs.

import (
	"fmt"

	"deadlineqos/internal/faults"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/stats"
	"deadlineqos/internal/units"
)

// Availability summarises fabric health under topological faults: outage
// exposure, repair activity over static flows and dynamic sessions, and
// the time-to-repair distribution. Nil in Results unless the fault plan
// contains switch or port events.
type Availability struct {
	// Executed topological fault events (inside the run horizon).
	SwitchDowns uint64 `json:"switch_downs"`
	SwitchUps   uint64 `json:"switch_ups"`
	PortDowns   uint64 `json:"port_downs"`
	// Downtime is the summed per-switch outage time, clipped to the
	// horizon (two switches down for 1 ms each count 2 ms).
	Downtime units.Time `json:"downtime"`

	// Static provisioned flows (sessions are counted separately below).
	// Rerouted moves a live flow to a detour; Restored re-validates a flow
	// that was blackholing (by repair after an outage, or because the
	// fault's clearing revived its route); Unreachable marks a flow whose
	// host pair the surviving fabric cannot connect.
	FlowsRerouted    uint64 `json:"flows_rerouted"`
	FlowsRestored    uint64 `json:"flows_restored"`
	FlowsUnreachable uint64 `json:"flows_unreachable"`

	// Dynamic sessions stranded by switch/port failures (from the session
	// manager's reroute-or-revoke machinery).
	SessionsRevoked     uint64 `json:"sessions_revoked"`
	SessionsRerouted    uint64 `json:"sessions_rerouted"`
	SessionsDowngraded  uint64 `json:"sessions_downgraded"`
	SessionsUnreachable uint64 `json:"sessions_unreachable"`

	// Time-to-repair over every repair performed — static route swaps
	// (fault instant to swap) and session reroutes (fault instant to the
	// client's in-band receipt of the new route).
	RepairCount uint64     `json:"repair_count"`
	RepairP50   units.Time `json:"repair_p50"`
	RepairP99   units.Time `json:"repair_p99"`
}

// String renders the availability summary for reports.
func (a *Availability) String() string {
	return fmt.Sprintf("downs=%d ups=%d portcuts=%d downtime=%v rerouted=%d restored=%d unreachable=%d sess[revoked=%d rerouted=%d downgraded=%d unreachable=%d] ttr[p50=%v p99=%v n=%d]",
		a.SwitchDowns, a.SwitchUps, a.PortDowns, a.Downtime,
		a.FlowsRerouted, a.FlowsRestored, a.FlowsUnreachable,
		a.SessionsRevoked, a.SessionsRerouted, a.SessionsDowngraded, a.SessionsUnreachable,
		a.RepairP50, a.RepairP99, a.RepairCount)
}

// record counts one executed switch or port event, before the replay
// applies it to deadSw (its dead switches, with the instant each died).
func (a *Availability) record(ev faults.Event, deadSw map[int]units.Time) {
	switch ev.Kind {
	case faults.SwitchDown:
		a.SwitchDowns++
	case faults.SwitchUp:
		a.SwitchUps++
		a.Downtime += ev.At - deadSw[ev.Link.Switch]
	case faults.PortDown:
		a.PortDowns++
	}
}

// availShard is one shard's repair activity, recorded by the scheduled
// repair events as they execute (so a repair scheduled past the horizon is
// not counted) and merged order-independently at the end of Run.
type availShard struct {
	rerouted    uint64
	restored    uint64
	unreachable uint64
	ttr         *stats.Histogram
}

// buildAvailability merges the per-shard repair counters and the session
// manager's switch-failure results into Results.Availability. Called at
// the end of Run, after the session counters are merged.
func (n *Network) buildAvailability(res *Results) {
	if n.avail == nil {
		return
	}
	av := n.avail
	ttr := stats.NewHistogram()
	for _, sh := range n.shards {
		av.FlowsRerouted += sh.avail.rerouted
		av.FlowsRestored += sh.avail.restored
		av.FlowsUnreachable += sh.avail.unreachable
		ttr.Merge(sh.avail.ttr)
	}
	if s := res.Sessions; s != nil {
		av.SessionsRevoked = s.SwitchRevoked
		av.SessionsRerouted = s.SwitchRerouted
		av.SessionsDowngraded = s.SwitchDowngraded
		av.SessionsUnreachable = s.SwitchUnreachable
		ttr.Merge(n.shards[0].sess.RepairLatHist) // merged across shards by Run
	}
	av.RepairCount = ttr.Count()
	if ttr.Count() > 0 {
		av.RepairP50 = ttr.Quantile(0.50)
		av.RepairP99 = ttr.Quantile(0.99)
	}
	res.Availability = av
}

// AuditInvariants checks the structural invariants that must hold at any
// event boundary — switch buffer-pool accounting, link credit bounds and
// the ownership of records and packets — plus the admission ledger's
// exact balance. The soak harness calls it after every epoch; it is
// independent of the statistical results.
func (n *Network) AuditInvariants() error {
	// Two censuses. Every record a free list handed out and none took
	// back must still be staged at a NIC, and every packet a pool handed
	// out and none took back must still be held by a switch or a link:
	// an end of life that skips its Put, or a Put of an item no pool
	// handed out, breaks a balance.
	var pTaken, pReturned, rTaken, rReturned uint64
	for _, sh := range n.shards {
		t, r := sh.pool.Counts()
		pTaken, pReturned = pTaken+t, pReturned+r
		t, r = sh.records.Counts()
		rTaken, rReturned = rTaken+t, rReturned+r
	}
	staged, inNetwork := n.held()
	if rTaken != rReturned+staged {
		return fmt.Errorf("network: record free lists handed out %d and took back %d, but %d are staged",
			rTaken, rReturned, staged)
	}
	if pTaken != pReturned+inNetwork {
		return fmt.Errorf("network: packet pools handed out %d and took back %d, but %d are in the network",
			pTaken, pReturned, inNetwork)
	}
	for _, sw := range n.switches {
		if err := sw.Audit(); err != nil {
			return err
		}
	}
	for i, l := range n.links {
		for vc := 0; vc < packet.NumVCs; vc++ {
			if c := l.Credits(packet.VC(vc)); c < 0 || c > n.cfg.BufPerVC {
				return fmt.Errorf("network: link %d vc %d credit balance %v outside [0, %v]",
					i, vc, c, n.cfg.BufPerVC)
			}
		}
	}
	if n.adm != nil {
		if err := n.adm.AuditLedger(); err != nil {
			return err
		}
	}
	for _, d := range n.sessDelegates {
		if err := d.AuditLedger(); err != nil {
			return fmt.Errorf("network: pod %d delegate (host %d): %w", d.PodLeaf(), d.HostID(), err)
		}
	}
	// Control-plane liveness: no client may have a setup pending longer
	// than the protocol's worst case (retries, capped backoff, response
	// timeouts and queue-drain hints included). A session stuck past the
	// bound means a Grant/Reject was lost without the retry machinery
	// recovering it — e.g. Ctl packets discarded by a dying switch with no
	// timeout armed.
	if n.sessMgr != nil {
		bound := n.sessCfg.LivenessBound()
		now := n.eng.Now()
		for _, cl := range n.sessClients {
			if oldest, ok := cl.OldestPending(); ok && now-oldest > bound {
				return fmt.Errorf(
					"network: session liveness: host %d has a setup pending since %v (now %v, bound %v)",
					cl.HostID(), oldest, now, bound)
			}
		}
	}
	return nil
}
