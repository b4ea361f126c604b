// The network's metrics-plane wiring (see internal/metrics): one schema
// registered idempotently on the caller's Registry and one instrument
// Set per shard. This is the only package that knows the schema. The
// components keep the plain counters Results is built from, and
// publishMetrics copies the running totals a shard owns into its Set;
// a fact is never counted twice. Only the facts no component counts —
// per-class delivery slack and misses, NIC evictions and policer
// demotions — are recorded at event time, by the network's own host
// hooks. Recording is shard-local and lock-free, the same single-writer
// discipline as the stats collector.
//
// Counters and gauges are stored (and the shard's snapshot published
// for the scrape server) at every telemetry probe tick and once more
// when the run stops. PerEngine instruments (engine events/pending)
// depend on the shard layout and are excluded from
// metrics.WriteDeterministic, mirroring the telemetry EngineSamples
// carve-out.

package network

import (
	"deadlineqos/internal/coflow"
	"deadlineqos/internal/metrics"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/switchsim"
	"deadlineqos/internal/units"
)

// classLabels names the traffic classes in metric labels (ascending
// packet.Class order).
var classLabels = [packet.NumClasses]string{"control", "multimedia", "best_effort", "background"}

// metricsSchema holds the instrument ids of the network's metric schema,
// registered once per Registry (re-registration across soak epochs is
// idempotent).
type metricsSchema struct {
	// Engine (PerEngine: shard-layout-dependent, excluded from the
	// deterministic render).
	engEvents  metrics.CounterID
	engPending metrics.GaugeID

	// Publish-time gauges.
	simTime     metrics.GaugeID // MergeMax across shards
	swQueued    metrics.GaugeID
	hostPending metrics.GaugeID
	admActive   metrics.GaugeID
	sessActive  metrics.GaugeID

	// Link layer.
	linkTxPkts, linkTxBytes, linkDropped, linkCorrupted metrics.CounterID

	// Buffers (every VOQ and output buffer of every switch).
	bufEnq, bufDeq, bufOrderErr, bufTakeOvers metrics.CounterID

	// Switches.
	swXbar, swLinkSends, swDropped metrics.CounterID

	// Hosts.
	hostGen, hostInj, hostDel metrics.CounterID
	hostMissed                [packet.NumClasses]metrics.CounterID
	slack                     [packet.NumClasses]metrics.HistogramID

	// Session control plane.
	sessStarted, sessGranted, sessAccepted, sessRejected metrics.CounterID
	sessReleased, sessRevoked, sessLocal                 metrics.CounterID
	sessEscalated, sessShed                              metrics.CounterID

	// Admission control.
	admReserves, admRejects, admReleases metrics.CounterID

	// Scheduling-policy plane: NIC evictions by value-aware dropping
	// policies (per class, in the frozen label order) and the coflow
	// workload's admission/outcome counters (bumped once, post-run).
	polEvictions    [packet.NumClasses]metrics.CounterID
	polEvictedValue metrics.CounterID
	cofAdmitted     metrics.CounterID
	cofRejected     metrics.CounterID
	cofCompleted    metrics.CounterID
	cofMissed       metrics.CounterID

	// Guarantee-protection plane: ingress-policer demotions (per class)
	// with the forged subset, and the gray-failure detector's actions.
	policeDemoted [packet.NumClasses]metrics.CounterID
	policeForged  metrics.CounterID
	grayDetected  metrics.CounterID
	grayRerouted  metrics.CounterID
	grayRevals    metrics.CounterID
}

// registerSchema registers (or re-resolves) the network schema on reg.
func registerSchema(reg *metrics.Registry) *metricsSchema {
	s := &metricsSchema{
		engEvents:  reg.Counter("qos_engine_events_total", "events executed by this shard's engine", metrics.PerEngine()),
		engPending: reg.Gauge("qos_engine_pending_events", "events pending on this shard's engine at the last publish", metrics.PerEngine()),

		simTime:     reg.Gauge("qos_sim_time_ns", "simulated clock at the last publish", metrics.WithMax()),
		swQueued:    reg.Gauge("qos_switch_queued_packets", "packets buffered in switches at the last publish"),
		hostPending: reg.Gauge("qos_host_pending_packets", "packets staged in host NICs at the last publish"),
		admActive:   reg.Gauge("qos_admission_active_flows", "admitted unreleased reservations at the last publish"),
		sessActive:  reg.Gauge("qos_sessions_active", "sessions the root CAC holds open at the last publish"),

		linkTxPkts:    reg.Counter("qos_link_tx_packets_total", "packets transmitted on links"),
		linkTxBytes:   reg.Counter("qos_link_tx_bytes_total", "bytes transmitted on links"),
		linkDropped:   reg.Counter("qos_link_dropped_total", "packets lost in flight to link-downs"),
		linkCorrupted: reg.Counter("qos_link_corrupted_total", "packets marked by the bit-error process"),

		bufEnq:       reg.Counter("qos_buffer_enqueued_total", "packets pushed into switch buffers"),
		bufDeq:       reg.Counter("qos_buffer_dequeued_total", "packets popped from switch buffers"),
		bufOrderErr:  reg.Counter("qos_buffer_order_errors_total", "dequeues that violated deadline order (oracle on)"),
		bufTakeOvers: reg.Counter("qos_buffer_takeovers_total", "pushes diverted to take-over queues"),

		swXbar:      reg.Counter("qos_switch_xbar_transfers_total", "crossbar transfers started"),
		swLinkSends: reg.Counter("qos_switch_link_sends_total", "packets switches put on downstream links"),
		swDropped:   reg.Counter("qos_switch_dropped_total", "packets discarded by SwitchDown faults"),

		hostGen: reg.Counter("qos_host_generated_total", "packets generated at host NICs"),
		hostInj: reg.Counter("qos_host_injected_total", "packets injected into the network"),
		hostDel: reg.Counter("qos_host_delivered_total", "packets delivered to destination hosts"),

		sessStarted:   reg.Counter("qos_session_started_total", "sessions generated by clients"),
		sessGranted:   reg.Counter("qos_session_granted_total", "sessions admitted (client view)"),
		sessAccepted:  reg.Counter("qos_session_accepted_total", "setups granted by a CAC"),
		sessRejected:  reg.Counter("qos_session_rejected_total", "setups rejected by the root CAC"),
		sessReleased:  reg.Counter("qos_session_released_total", "teardowns that released a reservation"),
		sessRevoked:   reg.Counter("qos_session_revoked_total", "reservations revoked after faults"),
		sessLocal:     reg.Counter("qos_session_local_grants_total", "setups admitted by pod delegates"),
		sessEscalated: reg.Counter("qos_session_escalated_total", "setups delegates forwarded to the root"),
		sessShed:      reg.Counter("qos_session_shed_total", "setups shed by saturated control queues"),

		admReserves: reg.Counter("qos_admission_reserves_total", "run-time reservations granted"),
		admRejects:  reg.Counter("qos_admission_rejects_total", "run-time reservations refused"),
		admReleases: reg.Counter("qos_admission_releases_total", "run-time reservations released"),

		polEvictedValue: reg.Counter("qos_policy_evicted_value_total", "packet value (milli-units) shed by bounded NIC queues"),
		cofAdmitted:     reg.Counter("qos_policy_coflow_admitted_total", "coflows admitted by the sigma-order pass"),
		cofRejected:     reg.Counter("qos_policy_coflow_rejected_total", "coflows rejected to best-effort by the sigma-order pass"),
		cofCompleted:    reg.Counter("qos_policy_coflow_completed_total", "coflows completed at every member before the run stopped"),
		cofMissed:       reg.Counter("qos_policy_coflow_missed_total", "coflows that missed their collective deadline"),

		policeForged: reg.Counter("qos_police_forged_total", "policed packets caught by the deadline-forgery test"),
		grayDetected: reg.Counter("qos_gray_detected_total", "slow-drain links flagged by the gray-failure detector"),
		grayRerouted: reg.Counter("qos_gray_rerouted_flows_total", "static regulated flows proactively rerouted off gray links"),
		grayRevals:   reg.Counter("qos_gray_revalidations_total", "session revalidation sweeps triggered by gray detections"),
	}
	for c := 0; c < packet.NumClasses; c++ {
		label := metrics.WithLabel(`class="` + classLabels[c] + `"`)
		s.hostMissed[c] = reg.Counter("qos_host_missed_total", "deliveries past deadline", label)
		s.slack[c] = reg.Histogram("qos_delivery_slack_ns", "remaining time-to-deadline at delivery (negative = missed)", label)
		s.polEvictions[c] = reg.Counter("qos_policy_evictions_total", "packets shed by bounded NIC queues", label)
		s.policeDemoted[c] = reg.Counter("qos_police_demoted_total", "packets demoted to best effort by the ingress policer", label)
	}
	return s
}

// shardMetrics is one shard's instrument set (nil with metrics off).
type shardMetrics struct {
	sch *metricsSchema
	set *metrics.Set
}

func (s *metricsSchema) newShardMetrics(reg *metrics.Registry) *shardMetrics {
	if s == nil {
		return nil
	}
	return &shardMetrics{sch: s, set: reg.NewSet()}
}

// hookMetrics holds the instruments a shard's host hooks record into at
// event time: the facts no component keeps a counter for. Every handle
// is nil with metrics off.
type hookMetrics struct {
	slack     [packet.NumClasses]*metrics.Histogram
	missed    [packet.NumClasses]*metrics.Counter
	evictions [packet.NumClasses]*metrics.Counter
	evValue   *metrics.Counter
	demoted   [packet.NumClasses]*metrics.Counter
	forged    *metrics.Counter
}

func (sm *shardMetrics) hookMetrics() hookMetrics {
	var hm hookMetrics
	if sm == nil {
		return hm
	}
	for c := 0; c < packet.NumClasses; c++ {
		hm.slack[c] = sm.set.Histogram(sm.sch.slack[c])
		hm.missed[c] = sm.set.Counter(sm.sch.hostMissed[c])
		hm.evictions[c] = sm.set.Counter(sm.sch.polEvictions[c])
		hm.demoted[c] = sm.set.Counter(sm.sch.policeDemoted[c])
	}
	hm.evValue = sm.set.Counter(sm.sch.polEvictedValue)
	hm.forged = sm.set.Counter(sm.sch.policeForged)
	return hm
}

// bumpCoflowMetrics records the coflow workload's final verdicts into
// shard 0's instrument set. Called on the main goroutine after the
// engines stop, before the final publish.
func (n *Network) bumpCoflowMetrics(res *coflow.Results) {
	sm := n.shards[0].mtr
	if sm == nil {
		return
	}
	set := sm.set
	set.Counter(sm.sch.cofAdmitted).Add(uint64(res.Admitted))
	set.Counter(sm.sch.cofRejected).Add(uint64(res.Rejected))
	set.Counter(sm.sch.cofCompleted).Add(uint64(res.Completed))
	set.Counter(sm.sch.cofMissed).Add(uint64(res.Coflows - res.DeadlineMet))
}

// admShard returns the shard whose events own the admission controller
// (and the session manager) during the run: the manager host's shard when
// sessions run, shard 0 otherwise (without sessions the controller is
// static after provisioning, so any single reader is race-free).
func (n *Network) admShard() int {
	if n.sessMgr != nil {
		return n.hostShard[n.sessCfg.Manager]
	}
	return 0
}

// publishMetrics stores the running totals and gauges a shard may
// legally read into its set — its own engine, the links it sends on, its
// own switches, hosts and CAC endpoints, its session and gray-detector
// counters, plus the admission state on the owning shard — then
// publishes the shard's snapshot for the scrape server. Called on the
// shard's goroutine at probe ticks and on the main goroutine once the
// engines have stopped.
func (n *Network) publishMetrics(shard int, t units.Time) {
	sh := n.shards[shard]
	sm := sh.mtr
	if sm == nil {
		return
	}
	set, sch := sm.set, sm.sch
	store := func(id metrics.CounterID, v uint64) { set.Counter(id).Store(v) }
	set.Gauge(sch.simTime).Set(int64(t))
	set.Gauge(sch.engPending).Set(int64(sh.eng.Pending()))
	store(sch.engEvents, sh.eng.Fired())

	var txPkts, txBytes, linkDropped, corrupted uint64
	for _, l := range sh.links {
		pkts, bytes := l.Sent()
		txPkts += pkts
		txBytes += uint64(bytes)
		linkDropped += l.Dropped()
		corrupted += l.Corrupted()
	}
	store(sch.linkTxPkts, txPkts)
	store(sch.linkTxBytes, txBytes)
	store(sch.linkDropped, linkDropped)
	store(sch.linkCorrupted, corrupted)

	var sw switchsim.Stats
	var swDropped uint64
	var queued int64
	for i, s := range n.switches {
		if n.swShard[i] != shard {
			continue
		}
		st := s.Stats()
		sw.XbarTransfers += st.XbarTransfers
		sw.LinkSends += st.LinkSends
		sw.OrderErrors += st.OrderErrors
		sw.TakeOvers += st.TakeOvers
		sw.Enqueued += st.Enqueued
		swDropped += s.Dropped()
		queued += int64(s.Queued())
	}
	store(sch.bufEnq, sw.Enqueued)
	store(sch.bufDeq, sw.Enqueued-uint64(queued))
	store(sch.bufOrderErr, sw.OrderErrors)
	store(sch.bufTakeOvers, sw.TakeOvers)
	store(sch.swXbar, sw.XbarTransfers)
	store(sch.swLinkSends, sw.LinkSends)
	store(sch.swDropped, swDropped)
	set.Gauge(sch.swQueued).Set(queued)

	store(sch.hostGen, sh.cons.Generated)
	store(sch.hostInj, sh.cons.InjectedCopies)
	store(sch.hostDel, sh.cons.DeliveredUnique)
	var pending int64
	for h, host := range n.hosts {
		if n.hostShard[h] == shard {
			pending += int64(host.Pending())
		}
	}
	set.Gauge(sch.hostPending).Set(pending)

	if c := sh.sess; c != nil {
		var accepted, rejected, revoked, shed uint64
		for _, e := range n.cacs {
			if e.shard == shard {
				accepted += e.cac.AcceptedCount()
				rejected += e.cac.RejectedCount()
				revoked += e.cac.RevokedCount()
				shed += e.cac.ShedCount()
			}
		}
		store(sch.sessStarted, c.Started)
		store(sch.sessGranted, c.Granted)
		store(sch.sessAccepted, accepted)
		store(sch.sessRejected, rejected)
		store(sch.sessReleased, c.Released)
		store(sch.sessRevoked, revoked)
		store(sch.sessLocal, c.LocalGrants)
		store(sch.sessEscalated, c.Escalated)
		store(sch.sessShed, shed)
	}
	if g := sh.gray; g != nil {
		store(sch.grayDetected, g.detected)
		store(sch.grayRerouted, g.rerouted)
		store(sch.grayRevals, g.revals)
	}
	if shard == n.admShard() {
		reserves, rejects, releases := n.adm.Counts()
		store(sch.admReserves, reserves-n.admBuilt[0])
		store(sch.admRejects, rejects-n.admBuilt[1])
		store(sch.admReleases, releases-n.admBuilt[2])
		set.Gauge(sch.admActive).Set(int64(n.adm.ActiveFlows()))
		if n.sessMgr != nil {
			set.Gauge(sch.sessActive).Set(int64(n.sessMgr.ActiveSessions()))
		}
	}
	set.Publish()
}
