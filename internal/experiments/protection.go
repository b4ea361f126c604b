package experiments

import (
	"fmt"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/faults"
	"deadlineqos/internal/network"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/report"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/traffic"
	"deadlineqos/internal/units"
)

// --- E9: guarantee protection — policing rogue hosts ----------------------

// protectionRogueAt is when behavioural windows open: early in the
// warm-up, so the policer's burst allowance (admitted before demotion
// kicks in) drains while the fabric is still settling and the measured
// window sees only the steady-state misbehaviour.
const protectionRogueAt = 200 * units.Microsecond

// protectionGoP is E9's small-frame video model: the Table 1 GoP
// structure at ~1/4 the frame sizes, so each 4 ms frame splits into a
// dozen MTU parts and a 12 ms measurement window holds hundreds of
// multi-part frame deadlines per host. The 32 KB police burst covers its
// largest frame plus worst-case envelope residue, while a rogue host
// overruns it within a couple of frame periods.
func protectionGoP() traffic.GoP {
	return traffic.GoP{
		Pattern: "IBBPBBPBBPBB",
		IMean:   25 * units.Kilobyte, ISigma: 5 * units.Kilobyte / 2,
		PMean: 15 * units.Kilobyte, PSigma: 5 * units.Kilobyte / 2,
		BMean: 25 * units.Kilobyte / 4, BSigma: 5 * units.Kilobyte / 4,
		Min: 5 * units.Kilobyte / 4, Max: 30 * units.Kilobyte,
	}
}

// protectionConfig builds the shared E9 scenario on base: the Advanced
// architecture at 90% static video load with the small-frame GoP above,
// a 2 ms per-frame target, and a 200 us eligibility lead. The lead is
// the scenario's load-bearing knob: the seed's just-in-time shaping
// releases each part barely ahead of its stamp, which makes the strict
// stamped-deadline frame-miss rate structurally high at any load; a
// 200 us lead gives honest flows slack to absorb fabric jitter, so the
// no-fault baseline misses ~nothing and the miss columns isolate the
// damage done by misbehaviour. WarmUp is pinned at 4 ms so behavioural
// windows opening at protectionRogueAt reach steady state (police burst
// drained, queues settled) before measurement starts.
func protectionConfig(base network.Config) network.Config {
	cfg := base
	cfg.Arch = arch.Advanced2VC
	cfg.WarmUp = 4 * units.Millisecond
	cfg.Load = 0.9
	cfg.CheckInvariants = true
	cfg.GoP = protectionGoP()
	cfg.VideoPeriod = 4 * units.Millisecond
	cfg.VideoTarget = 2 * units.Millisecond
	cfg.EligibleLead = 200 * units.Microsecond
	cfg.PoliceBurst = 32 * units.Kilobyte
	return cfg
}

// protectionChurn overlays the session-churn plane E9's forgery rows
// need: deadline forgery only has a surface on ByBandwidth-stamped
// reservations (CAC session grants), so those rows trade static load for
// a steady arrival stream of short sessions, keeping the combined
// regulated load at a contended-but-feasible operating point.
func protectionChurn(cfg *network.Config) {
	cfg.Load = 0.7
	cfg.Sessions = ChurnSessions(300 * units.Microsecond)
}

// protectionRogues returns E9's misbehaving hosts: every other host, so
// half the fabric overdrives its reservation while the interleaved other
// half supplies the innocent flows the isolation metric watches.
func protectionRogues(hosts int) []int {
	var out []int
	for h := 1; h < hosts; h += 2 {
		out = append(out, h)
	}
	return out
}

// RoguePlan returns the E9 behavioural fault plan: every other host
// multiplies its reserved-flow traffic by factor over [from, until).
// Factor 1 is the accounting sentinel — baseline rows use it so the
// innocent/rogue split is measured over the identical host partition.
func RoguePlan(hosts int, from, until units.Time, factor float64) *faults.Plan {
	plan := &faults.Plan{}
	for _, h := range protectionRogues(hosts) {
		plan.Events = append(plan.Events, faults.Event{
			At: from, Until: until, Host: h, Kind: faults.RogueFlow, Scale: factor,
		})
	}
	return plan
}

// ForgePlan returns the deadline-forgery fault plan: the same hosts as
// RoguePlan stamp deadlines scale x tighter than the BWavg recurrence
// permits over [from, until).
func ForgePlan(hosts int, from, until units.Time, scale float64) *faults.Plan {
	plan := &faults.Plan{}
	for _, h := range protectionRogues(hosts) {
		plan.Events = append(plan.Events, faults.Event{
			At: from, Until: until, Host: h, Kind: faults.DeadlineForge, Scale: scale,
		})
	}
	return plan
}

// Protection runs E9, the guarantee-protection comparison. The static
// block runs the video plane under babbling rogues (6x traffic, shaper
// bypassed, virtual clock reset) with each protection layer toggled; the
// churn block runs deadline forgery against CAC session grants. The
// isolation claim is read off the "innocent miss" column: a babbler
// melts the fabric for everyone when unprotected, the NIC policer
// demotes the excess and restores throughput but cannot see stamp
// optimism on latency-mode flows (its envelope replay checks rate, not
// urgency), the occupancy guard restores arbitration fairness but not
// tails — and the two layers together return innocent flows to within
// epsilon of the no-rogue baseline. The forgery rows make the
// complementary point: the envelope test catches essentially every
// forged ByBandwidth stamp and confines the damage to the forger.
func Protection(opt Options) (*report.Table, error) {
	hosts := opt.Base.Topology.Hosts()
	const rogueFactor = 6
	const forgeScale = 0.25
	const guardBytes = 8 * units.Kilobyte
	rows := []struct {
		name   string
		kind   faults.Kind
		scale  float64
		police bool
		guard  units.Size
		churn  bool
	}{
		{"baseline", faults.RogueFlow, 1, false, 0, false},
		{"baseline", faults.RogueFlow, 1, true, 0, false},
		{"rogue", faults.RogueFlow, rogueFactor, false, 0, false},
		{"rogue", faults.RogueFlow, rogueFactor, false, guardBytes, false},
		{"rogue", faults.RogueFlow, rogueFactor, true, 0, false},
		{"rogue", faults.RogueFlow, rogueFactor, true, guardBytes, false},
		{"churn-baseline", faults.RogueFlow, 1, false, 0, true},
		{"forge", faults.DeadlineForge, forgeScale, false, 0, true},
		{"forge", faults.DeadlineForge, forgeScale, true, 0, true},
	}
	t := report.NewTable(
		fmt.Sprintf("Extension: guarantee protection — NIC policing + occupancy guard vs rogue hosts (Advanced 2 VCs, %d/%d hosts rogue at %dx)",
			hosts/2, hosts, rogueFactor),
		"scenario", "police", "guard", "innocent miss %", "rogue miss %",
		"video p99 (ms)", "control p99 (us)", "demoted", "forged")
	cfgs := make([]network.Config, len(rows))
	for i, row := range rows {
		cfg := protectionConfig(opt.Base)
		if row.churn {
			protectionChurn(&cfg)
		}
		horizon := cfg.WarmUp + cfg.Measure
		if row.kind == faults.DeadlineForge {
			cfg.Faults = ForgePlan(hosts, protectionRogueAt, horizon, row.scale)
		} else {
			cfg.Faults = RoguePlan(hosts, protectionRogueAt, horizon, row.scale)
		}
		cfg.Police = row.police
		cfg.GuardBytes = row.guard
		cfgs[i] = cfg
	}
	results, err := opt.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		row := rows[i]
		guard := "off"
		if row.guard > 0 {
			guard = row.guard.String()
		}
		var demoted, forged uint64
		if res.Police != nil {
			demoted, forged = res.Police.Demoted, res.Police.Forged
		}
		mm := &res.PerClass[packet.Multimedia]
		ctrl := &res.PerClass[packet.Control]
		t.Add(row.name, onOff(row.police), guard,
			fmt.Sprintf("%.2f", 100*res.InnocentMissRate()),
			fmt.Sprintf("%.2f", 100*res.RogueMissRate()),
			fmt.Sprintf("%.3f", mm.FrameHist.Quantile(0.99).Milliseconds()),
			fmt.Sprintf("%.2f", ctrl.LatencyHist.Quantile(0.99).Microseconds()),
			fmt.Sprintf("%d", demoted),
			fmt.Sprintf("%d", forged))
	}
	return t, nil
}

// --- E9b: gray-failure detection ------------------------------------------

// transitLinkIDs enumerates the switch-to-switch links of a topology —
// the links a slow drain can be routed around. Host cables are excluded
// on purpose: a gray host cable has no detour (RepairPath can only give
// up), so draining one measures nothing about proactive reroute.
func transitLinkIDs(topo topology.Topology) []faults.LinkID {
	var ids []faults.LinkID
	for sw := 0; sw < topo.Switches(); sw++ {
		for p := 0; p < topo.Radix(sw); p++ {
			if peer := topo.Peer(sw, p); peer.ID != -1 && !peer.IsHost {
				ids = append(ids, faults.LinkID{Switch: sw, Port: p})
			}
		}
	}
	return ids
}

// GrayPlan returns the slow-drain fault plan: the first and middle links
// of ids derate to scale over [from, until) — a persistent derating
// short of hard failure, exactly what the gray detector exists to flag.
// The same plan runs with the detector off and on.
func GrayPlan(ids []faults.LinkID, from, until units.Time, scale float64) *faults.Plan {
	plan := &faults.Plan{}
	for _, l := range []faults.LinkID{ids[0], ids[len(ids)/2]} {
		plan.Events = append(plan.Events,
			faults.Event{At: from, Link: l, Kind: faults.Derate, Scale: scale},
			faults.Event{At: until, Link: l, Kind: faults.Derate, Scale: 1.0})
	}
	return plan
}

// GrayDrain measures the gray-failure detector: two links slow-drain to
// 20% capacity for most of the run; with the detector armed, flows
// crossing them are proactively rerouted (and their sessions revalidated)
// once the derating outlasts the persistence threshold, instead of eating
// the latency until a hard SLO trip. The table compares regulated-class
// tails with the detector off and on, next to the detector's own
// activity counters. Session churn is on so revalidation has live grants
// to act on.
func GrayDrain(opt Options) (*report.Table, error) {
	ids := transitLinkIDs(opt.Base.Topology)
	t := report.NewTable(
		"Extension: gray-failure detection — slow-drain links, proactive reroute (Advanced 2 VCs, 70% load + churn)",
		"detector", "detections", "flows rerouted", "revalidations",
		"frame miss %", "video p99 (ms)", "control p99 (us)")
	cfg := protectionConfig(opt.Base)
	protectionChurn(&cfg)
	cfg.Faults = GrayPlan(ids, cfg.WarmUp+units.Millisecond, cfg.WarmUp+cfg.Measure, 0.2)
	armed := cfg
	armed.GrayPersistence = 500 * units.Microsecond
	results, err := opt.runAll([]network.Config{cfg, armed})
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		detect := res.Config.GrayPersistence > 0
		detections, rerouted, revals := "-", "-", "-"
		if detect {
			if res.Gray == nil {
				return nil, fmt.Errorf("experiments: gray: no Gray report in results")
			}
			detections = fmt.Sprintf("%d", res.Gray.Detections)
			rerouted = fmt.Sprintf("%d", res.Gray.FlowsRerouted)
			revals = fmt.Sprintf("%d", res.Gray.Revalidations)
		}
		mm := &res.PerClass[packet.Multimedia]
		ctrl := &res.PerClass[packet.Control]
		t.Add(onOff(detect), detections, rerouted, revals,
			fmt.Sprintf("%.2f", 100*res.InnocentMissRate()),
			fmt.Sprintf("%.3f", mm.FrameHist.Quantile(0.99).Milliseconds()),
			fmt.Sprintf("%.2f", ctrl.LatencyHist.Quantile(0.99).Microseconds()))
	}
	return t, nil
}
