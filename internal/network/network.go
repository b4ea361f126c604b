package network

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"deadlineqos/internal/admission"
	"deadlineqos/internal/coflow"
	"deadlineqos/internal/faults"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/link"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/parsim"
	"deadlineqos/internal/policy"
	"deadlineqos/internal/seqset"
	"deadlineqos/internal/session"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/stats"
	"deadlineqos/internal/switchsim"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/traffic"
	"deadlineqos/internal/units"
	"deadlineqos/internal/xrand"
)

// Results carries everything measured during one run.
type Results struct {
	Config Config
	*stats.Collector

	// Aggregate switch instrumentation.
	OrderErrors   uint64
	TakeOvers     uint64
	XbarTransfers uint64
	LinkSends     uint64

	// SimEvents is the number of engine events executed (cost metric),
	// summed over shard engines in a parallel run. Sharding splits some
	// logically-single events (a cross-shard arrival is one receiver event
	// plus one sender bookkeeping event), so this count is comparable
	// between runs of equal Shards, not across shard counts.
	SimEvents uint64
	// PendingAtHorizon counts packets still queued anywhere when the
	// measurement window closed (a saturation indicator).
	PendingAtHorizon int
	// VideoStreamsPerHost records the provisioned multimedia fan-out.
	VideoStreamsPerHost int

	// Fault injection and end-to-end recovery (all zero in fault-free
	// runs). Unlike the Collector's per-class counters these cover the
	// whole run, warm-up included, so they balance in Conservation.
	//
	// FaultEvents counts executed fault-plan events; FaultTrace is their
	// execution-order record (identical across same-seed runs, sequential
	// or sharded).
	FaultEvents uint64
	FaultTrace  []faults.TraceEntry
	// LostOnLink counts copies lost in flight to link flaps.
	LostOnLink uint64
	// CorruptedInFlight counts copies marked corrupt by link bit errors
	// (every one is eventually dropped by a destination CRC check or lost
	// to a flap first).
	CorruptedInFlight uint64
	// Reliability aggregates the hosts' recovery-layer counters.
	Reliability hostif.RelCounters
	// OutstandingAtStop counts injected-but-unacknowledged packets still
	// tracked by senders when the run stopped.
	OutstandingAtStop int
	// Conservation is the run-level packet accounting; its Check method
	// is the simulator's end-to-end conservation invariant.
	Conservation faults.Conservation

	// Policy names the scheduling policy the run used.
	Policy string
	// Coflows summarises the coflow workload — σ-pass admission split,
	// completions, deadline outcomes (nil unless Config.Coflows was set).
	Coflows *coflow.Results

	// Sessions summarises the dynamic session subsystem (nil unless
	// Config.Sessions was set): CAC accept ratio, in-band setup latency,
	// reserved-vs-achieved utilisation, revocations, downgrades.
	Sessions *session.Results

	// ControlPlane mirrors Sessions.ControlPlane at the top level (nil
	// unless sessions ran): the survivable-CAC summary — delegated
	// admissions, lease traffic, overload shedding, failover recovery.
	ControlPlane *session.ControlPlane

	// Availability summarises switch/port-failure impact and repair (nil
	// unless the fault plan contains topological events): fabric downtime,
	// flows rerouted / restored / partitioned, stranded sessions, and the
	// time-to-repair distribution.
	Availability *Availability

	// Police summarises the ingress policer's run (nil unless
	// Config.Police): demotions per class, the forged subset, and the
	// innocent/rogue multimedia miss split behind the isolation metric.
	Police *PoliceSummary

	// Gray summarises the gray-failure detector (nil unless
	// Config.GrayPersistence is positive): slow-drain links flagged,
	// proactive reroutes, and session revalidation sweeps.
	Gray *GrayReport

	// Telemetry holds the periodic per-port and engine probe series (nil
	// unless Config.ProbeInterval was positive).
	Telemetry *trace.Telemetry
	// Perf profiles the engines' execution of this run: event throughput,
	// wall clock per simulated second, and allocation counters.
	Perf trace.Profile
}

// netShard is the per-shard slice of the simulation state: a private
// engine plus private sinks for everything the model records at event
// time. Each shard's goroutine only ever touches its own netShard, so no
// recording path needs a lock; Run merges the shards after the engines
// stop. A sequential run is simply nshards == 1.
type netShard struct {
	eng           *sim.Engine
	collect       *stats.Collector
	tracer        *trace.Tracer
	cons          faults.Conservation
	injector      faults.Injector
	deliveredOnce map[packet.FlowID]*seqset.Set // delivery oracle; nil unless CheckInvariants
	telemetry     *trace.Telemetry
	sess          *session.Counters // nil unless Config.Sessions is set
	avail         *availShard       // nil unless the fault plan is topological
	gray          *grayShard        // nil unless the gray detector is armed
	mtr           *shardMetrics     // nil unless Config.Metrics is set
	links         []*link.Link      // the links this shard sends on
	// pool recycles the packets whose life ends on this shard; its hosts
	// inject from it (DESIGN.md §5, packet ownership). records is the
	// free list of the records its hosts stage packets in until
	// injection.
	pool    *packet.Pool[packet.Packet]
	records *packet.Pool[packet.Staged]
}

// Network is a fully wired simulation. Build one with New, then call Run,
// or use the package-level Run convenience for the whole lifecycle.
type Network struct {
	cfg          Config
	eng          *sim.Engine // shard 0's engine (the sequential API surface)
	topo         topology.Topology
	hosts        []*hostif.Host
	switches     []*switchsim.Switch
	sources      []traffic.Source
	collect      *stats.Collector // shard 0's; all shards merged into it at Run end
	adm          *admission.Controller
	videoPerHost int
	pol          policy.Policy
	coflow       *coflow.Manager // nil unless cfg.Coflows is set

	// Dynamic session subsystem (nil / zero unless cfg.Sessions is set).
	sessMgr       *session.Manager
	sessCfg       session.Config
	sessClients   []*session.Client
	sessDelegates []*session.Delegate
	cacs          []shardCAC // the root, then the delegates in order

	// Sharded execution state (see internal/parsim). nshards == 1 is the
	// sequential layout: one shard, no mailbox queues.
	nshards   int
	swShard   []int
	hostShard []int
	shards    []*netShard
	queues    [][]*parsim.Queue // queues[from][to]; nil on the diagonal
	lookahead units.Time

	// Fault machinery: the plan's events in time order (normalized once,
	// here, for every consumer), every live link (for conservation
	// accounting and BER wiring), switch output links by fault address,
	// host injection links by host, and the plan's per-event execution
	// slots (slot i is events[i]; disjoint shards write disjoint slots).
	events     []faults.Event
	links      []*link.Link
	linkByID   map[faults.LinkID]*link.Link
	hostUp     []*link.Link
	faultSlots []faults.TraceEntry
	faultDone  []bool

	// telemetry holds the merged probe series after Run (ProbeInterval > 0).
	telemetry *trace.Telemetry

	// Fault replay state (see replay.go): trackFlows fills the registry
	// of static flows the replay may move, when the plan has switch or
	// port events or the gray detector is armed.
	trackFlows  bool
	repairFlows []regFlow
	avail       *Availability

	// admBuilt is adm's Counts after provisioning: the metrics plane
	// publishes run-time admission decisions only.
	admBuilt [3]uint64
}

// Partition returns the shard assignment for every switch and host of
// topo when split across the given shard count, plus the effective count
// (clamped to [1, switches]). Switches are dealt round-robin; each host
// follows its leaf switch, so a host's injection and ejection links never
// cross a shard boundary — only switch-to-switch links do, and those
// carry the link propagation latency that parsim uses as lookahead.
func Partition(topo topology.Topology, shards int) (swShard, hostShard []int, effective int) {
	effective = shards
	if effective < 1 {
		effective = 1
	}
	if s := topo.Switches(); effective > s {
		effective = s
	}
	swShard = make([]int, topo.Switches())
	for sw := range swShard {
		swShard[sw] = sw % effective
	}
	hostShard = make([]int, topo.Hosts())
	for sw := 0; sw < topo.Switches(); sw++ {
		for p := 0; p < topo.Radix(sw); p++ {
			if peer := topo.Peer(sw, p); peer.ID >= 0 && peer.IsHost {
				hostShard[peer.ID] = swShard[sw]
			}
		}
	}
	return swShard, hostShard, effective
}

// New builds and wires a network from cfg without starting it.
func New(cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, topo: cfg.Topology, pol: cfg.Policy}
	if n.pol == nil {
		n.pol = policy.Default()
	}
	n.events = cfg.Faults.Normalized()
	n.trackFlows = cfg.Faults.HasTopological() || (cfg.GrayPersistence > 0 && !cfg.Faults.Empty())
	n.swShard, n.hostShard, n.nshards = Partition(n.topo, cfg.Shards)
	n.lookahead = cfg.PropDelay
	if cfg.Reliability.Enabled {
		if ad := cfg.Reliability.WithDefaults().AckDelay; ad < n.lookahead {
			n.lookahead = ad
		}
	}

	var sch *metricsSchema
	if cfg.Metrics != nil {
		sch = registerSchema(cfg.Metrics)
	}

	n.shards = make([]*netShard, n.nshards)
	for i := range n.shards {
		sh := &netShard{
			eng:     sim.New(),
			collect: stats.NewCollector(n.topo.Hosts(), cfg.LinkBW, cfg.WarmUp, cfg.WarmUp+cfg.Measure),
			pool:    new(packet.Pool[packet.Packet]),
			records: new(packet.Pool[packet.Staged]),
		}
		if n.nshards == 1 {
			sh.tracer = cfg.Tracer
		} else {
			sh.tracer = cfg.Tracer.Clone()
		}
		sh.mtr = sch.newShardMetrics(cfg.Metrics)
		if cfg.CheckInvariants {
			sh.deliveredOnce = make(map[packet.FlowID]*seqset.Set)
		}
		n.shards[i] = sh
	}
	n.eng = n.shards[0].eng
	n.collect = n.shards[0].collect
	n.queues = make([][]*parsim.Queue, n.nshards)
	for i := range n.queues {
		n.queues[i] = make([]*parsim.Queue, n.nshards)
		for j := range n.queues[i] {
			if i != j {
				n.queues[i][j] = &parsim.Queue{}
			}
		}
	}

	n.linkByID = make(map[faults.LinkID]*link.Link)
	n.hostUp = make([]*link.Link, n.topo.Hosts())

	rng := xrand.New(cfg.Seed)
	skewRng := rng.Split(0xc10c)
	skew := func() units.Time {
		if cfg.ClockSkewMax <= 0 {
			return 0
		}
		return units.Time(skewRng.UniformInt(-int64(cfg.ClockSkewMax), int64(cfg.ClockSkewMax)))
	}

	// Switches, each on its shard's engine. The occupancy guard covers
	// only host-facing inputs: per-input byte fairness is per-host
	// fairness at the edge, while transit uplinks aggregate many hosts'
	// flows and must not be equalised against a single babbler.
	guardIn := func(sw int) []bool {
		if cfg.GuardBytes <= 0 {
			return nil
		}
		mask := make([]bool, n.topo.Radix(sw))
		for p := range mask {
			peer := n.topo.Peer(sw, p)
			mask[p] = peer.ID >= 0 && peer.IsHost
		}
		return mask
	}
	for sw := 0; sw < n.topo.Switches(); sw++ {
		sh := n.shards[n.swShard[sw]]
		n.switches = append(n.switches, switchsim.New(switchsim.Config{
			Eng:              sh.eng,
			Clock:            packet.Clock{Base: sh.eng.Now, Skew: skew()},
			ID:               sw,
			Radix:            n.topo.Radix(sw),
			Arch:             cfg.Arch,
			BufPerVC:         cfg.BufPerVC,
			XbarBW:           cfg.XbarBW,
			TrackOrderErrors: cfg.TrackOrderErrors,
			VCTable:          cfg.VCArbitrationTable,
			Policy:           n.pol,
			GuardBytes:       cfg.GuardBytes,
			GuardInputs:      guardIn(sw),
			Tracer:           sh.tracer,
			OnPktDrop:        n.onSwitchDropFor(sh),
		}))
	}

	// Hosts, each on its shard's engine, reporting into the shard's
	// collector and conservation counters (hooks run on the host's shard
	// goroutine, so recording needs no locks; the counters cover the whole
	// run, warm-up included, so the accounting balances exactly).
	hooks := make([]hostif.Hooks, n.nshards)
	for i := range hooks {
		hooks[i] = n.hooksFor(n.shards[i])
	}
	var sendAck func(src, dst int, flow packet.FlowID, seq uint64, ok bool)
	if cfg.Reliability.Enabled {
		rel := cfg.Reliability.WithDefaults()
		hostCount := n.topo.Hosts()
		sendAck = func(src, dst int, flow packet.FlowID, seq uint64, ok bool) {
			// Acks travel out-of-band like credits: delayed, never lost.
			// Each (src, dst) report path has its own ordering channel so
			// relayed reports keep the sequential order (see
			// sim.Engine.AtChannel); ack channels set bit 31 to stay
			// disjoint from the link channels wire() assigns.
			from, to := n.hostShard[dst], n.hostShard[src]
			ch := uint32(1)<<31 | uint32(src*hostCount+dst)
			fire := n.shards[from].eng.Now() + rel.AckDelay
			ev := n.hosts[src].AckEvent(flow, seq, ok)
			if from == to {
				n.shards[from].eng.Post(fire, ch, ev)
			} else {
				n.queues[from][to].Put(fire, ch, ev)
			}
		}
	}
	for h := 0; h < n.topo.Hosts(); h++ {
		sh := n.shards[n.hostShard[h]]
		n.hosts = append(n.hosts, hostif.New(hostif.Config{
			Eng:          sh.eng,
			Clock:        packet.Clock{Base: sh.eng.Now, Skew: skew()},
			ID:           h,
			Arch:         cfg.Arch,
			MTU:          cfg.MTU,
			EligibleLead: cfg.EligibleLead,
			// Per-host id ranges keep packet and frame ids unique without
			// any cross-shard coordination, and identical at every shard
			// count.
			IDs:         hostif.NewIDSource(uint64(h+1) << 40),
			Pool:        sh.pool,
			Records:     sh.records,
			Policy:      n.pol,
			Hooks:       hooks[n.hostShard[h]],
			Reliability: cfg.Reliability,
			SendAck:     sendAck,
			Tracer:      sh.tracer,
			Police:      cfg.Police,
			PoliceBurst: cfg.PoliceBurst,
		}))
	}

	n.wire()
	n.installFaults()

	adm, err := admission.New(n.topo, cfg.LinkBW, 1.0)
	if err != nil {
		return nil, err
	}
	for _, d := range cfg.DegradedLinks {
		adm.DerateLink(d.Switch, d.Port, d.Scale)
	}
	n.adm = adm
	if err := n.provisionFlows(rng); err != nil {
		return nil, err
	}
	if err := n.provisionSessions(rng); err != nil {
		return nil, err
	}
	// One replay of the fault plan decides every management reaction. The
	// CAC notices are scheduled before the coflow start events, the route
	// swaps and gray reactions after them.
	react := n.replayFaults()
	n.schedule(react.cac)
	if err := n.provisionCoflows(); err != nil {
		return nil, err
	}
	// The admission controller mutates (and is read) only on its owning
	// shard during the run, so that shard publishes its counts, less the
	// pre-run provisioning above.
	n.admBuilt[0], n.admBuilt[1], n.admBuilt[2] = n.adm.Counts()
	n.schedule(react.repair)
	n.schedule(react.gray)
	return n, nil
}

// hooksFor builds the instrumentation hooks for hosts living on sh.
func (n *Network) hooksFor(sh *netShard) hostif.Hooks {
	warmUp, horizon := n.cfg.WarmUp, n.cfg.WarmUp+n.cfg.Measure
	// Deadline-miss-burst SLO state: a per-shard ring of the last
	// MissBurstCount miss instants. When the ring wraps inside
	// MissBurstWindow the shard trips its flight recorder (a no-op
	// without one). The ring lives in the Delivered closure, so the
	// detector is lock-free like every other per-shard recording path.
	burstN, burstW := n.cfg.MissBurstCount, n.cfg.MissBurstWindow
	var missT []units.Time
	var nMiss uint64
	if burstN > 0 {
		missT = make([]units.Time, burstN)
	}
	hm := sh.mtr.hookMetrics()
	hooks := hostif.Hooks{
		Generated: func(p *packet.Packet) {
			sh.cons.Generated++
			sh.collect.PacketGenerated(p)
		},
		Injected: func(p *packet.Packet, now units.Time) {
			sh.cons.InjectedCopies++
			sh.collect.PacketInjected(p, now)
		},
		Delivered: func(p *packet.Packet, now units.Time) {
			sh.cons.DeliveredUnique++
			if sh.deliveredOnce != nil {
				// A unique packet is (flow, seq): retransmit copies share it.
				seen := sh.deliveredOnce[p.Flow]
				if seen == nil {
					seen = new(seqset.Set)
					sh.deliveredOnce[p.Flow] = seen
				}
				if !seen.Add(p.Seq) {
					sh.cons.DoubleDeliveries++
					sh.tracer.Flight().Trip("double-delivery", now)
				}
			}
			sh.collect.PacketDelivered(p, now)
			// Delivery slack against the destination's clock: Deadline was
			// reconstructed from the TTD header on arrival, so it is TTD.
			if h := hm.slack[p.Class]; h != nil {
				h.Observe(int64(p.TTD))
				if p.TTD < 0 {
					hm.missed[p.Class].Inc()
				}
			}
			if burstN > 0 && now > p.Deadline {
				missT[int(nMiss)%burstN] = now
				nMiss++
				if nMiss >= uint64(burstN) {
					if oldest := missT[int(nMiss)%burstN]; now-oldest <= burstW {
						sh.tracer.Flight().Trip("deadline-miss-burst", now)
					}
				}
			}
			// Session traffic accounting inside the measurement window
			// (sh.sess is set by provisionSessions after the hooks are
			// built; the closure reads it at event time).
			if sc := sh.sess; sc != nil && now >= warmUp && now < horizon {
				switch {
				case session.IsSessionData(p.Flow):
					sc.DataBytes += p.Size
					sc.DataPackets++
				case session.IsSignalling(p.Flow):
					sc.SigBytes += p.Size
					sc.SigPackets++
				}
			}
			// Coflow ring advance (n.coflow is set by provisionCoflows
			// after the hooks are built; the closure reads it at event
			// time). The manager only ever mutates the destination host's
			// state, i.e. this shard's.
			if cm := n.coflow; cm != nil {
				cm.OnDelivered(p, now)
			}
		},
		Corrupted: func(p *packet.Packet, now units.Time) {
			sh.cons.ArrivedCorrupt++
			sh.collect.PacketCorrupted(p, now)
		},
		DupDropped: func(p *packet.Packet, now units.Time) {
			sh.cons.ArrivedDup++
			sh.collect.PacketDupDropped(p, now)
		},
		Retransmitted: func(p *packet.Packet, now units.Time) {
			sh.cons.Retransmissions++
			sh.collect.PacketRetransmitted(p, now)
		},
		Demoted: sh.collect.PacketDemoted,
	}
	// Ingress-policer demotions: conservation (informational term),
	// per-class statistics, and the qos_police_* counters.
	if n.cfg.Police {
		hooks.Policed = func(p *packet.Packet, now units.Time, forged bool) {
			sh.cons.PolicedDemotions++
			sh.collect.PacketPoliced(p, now, forged)
			if c := hm.demoted[p.Class]; c != nil {
				c.Inc()
				if forged {
					hm.forged.Inc()
				}
			}
		}
	}
	// NIC evictions by bounded (value-aware) host queues: conservation,
	// per-class statistics, and the policy-plane counters.
	hooks.Evicted = func(p *packet.Packet, now units.Time) {
		sh.cons.EvictedAtNIC++
		sh.collect.PacketEvicted(p, now)
		if c := hm.evictions[p.Class]; c != nil {
			c.Inc()
			if p.Value > 0 {
				hm.evValue.Add(uint64(p.Value))
			}
		}
	}
	return hooks
}

// onDropFor builds the in-flight-loss observer for links owned by sh. A
// lost packet never left the sender's shard, and its life ends here.
func (n *Network) onDropFor(sh *netShard) func(p *packet.Packet) {
	return func(p *packet.Packet) {
		sh.cons.LostOnLink++
		if tr := sh.tracer; tr != nil && p.Sampled {
			// A link drop has no owning node; slack comes from the TTD
			// header stamped when the packet left the sender (the Deadline
			// field is stale while in flight).
			tr.Record(trace.Event{
				T: sh.eng.Now(), Kind: trace.KindLinkDrop, Pkt: p.ID, Flow: p.Flow,
				Class: p.Class, VC: p.VC, Seq: p.Seq, Src: p.Src, Dst: p.Dst,
				Node: -1, Port: -1, Out: -1, Hop: p.Hop,
				Slack: p.TTD, Size: p.Size,
			})
		}
		sh.collect.PacketLost(p)
		sh.pool.Put(p)
	}
}

// onSwitchDropFor builds the dead-switch discard observer for switches
// owned by sh (the switch itself traces the drop; this hook keeps the
// conservation books and the per-class loss statistics, and recycles the
// packet, whose life ends here).
func (n *Network) onSwitchDropFor(sh *netShard) func(p *packet.Packet) {
	return func(p *packet.Packet) {
		sh.cons.DroppedInSwitch++
		sh.collect.PacketLost(p)
		sh.pool.Put(p)
	}
}

// creditPortal relays a cross-shard credit return: the downstream element
// calls ReturnCredits on the receiver's shard, and the update lands on the
// sender's engine after the reverse propagation delay, on the link's
// credit channel — the same timing and ordering the intra-shard path has.
type creditPortal struct {
	q    *parsim.Queue // receiver shard -> sender shard
	eng  *sim.Engine   // receiver shard's engine (for Now)
	l    *link.Link
	prop units.Time
	ch   uint32
}

func (cp *creditPortal) ReturnCredits(vc packet.VC, size units.Size) {
	cp.q.Put(cp.eng.Now()+cp.prop, cp.ch, cp.l.CreditEvent(vc, size))
}

// relayedArrival lands a cross-shard link arrival on the receiver's
// engine: the relayed packet enters the downstream element's input port.
type relayedArrival struct{ dst link.Receiver }

func (r *relayedArrival) Fire(_ sim.Kind, p *packet.Packet, _, _ uint64) { r.dst.Receive(p) }

// linkAction is one directed-link up/down transition a topological fault
// event expands to. Switch output links are addressed by LinkID; host
// injection links (which have no LinkID) by the host index.
type linkAction struct {
	id   faults.LinkID
	host int // >= 0: host's injection link instead of id
	down bool
}

// expandTopological expands a switch or port event into its ordered list
// of directed-link transitions: ports ascending, per port the out-link
// first and the reverse in-link second. Both the live fault installer and
// downTimeline replay exactly this sequence, so the cross-shard loss
// predicate always matches the sender-side link epochs.
func expandTopological(topo topology.Topology, ev faults.Event) []linkAction {
	down := ev.Kind == faults.SwitchDown || ev.Kind == faults.PortDown
	sw := ev.Link.Switch
	lo, hi := ev.Link.Port, ev.Link.Port+1
	if ev.Kind.SwitchScoped() {
		lo, hi = 0, topo.Radix(sw)
	}
	var acts []linkAction
	for p := lo; p < hi; p++ {
		peer := topo.Peer(sw, p)
		if peer.ID < 0 {
			continue
		}
		acts = append(acts, linkAction{id: faults.LinkID{Switch: sw, Port: p}, host: -1, down: down})
		if peer.IsHost {
			acts = append(acts, linkAction{host: peer.ID, down: down})
		} else {
			acts = append(acts, linkAction{id: faults.LinkID{Switch: peer.ID, Port: peer.Port}, host: -1, down: down})
		}
	}
	return acts
}

// downTimeline replays the plan's time-ordered events through the per-link
// up/down state machine and returns, per link, the times of the applied
// up/down transitions. Transitions strictly alternate starting with a
// down (links are built up), so a prefix count's parity gives the link
// state at any instant, and the down instants are exactly where the live
// link's downEpoch increments. Cross-shard links use it to decide loss
// at send time (the receiver's shard cannot observe the sender-side
// state). Topological events are expanded with expandTopological so
// their member links transition exactly as the live installer applies
// them.
func downTimeline(topo topology.Topology, evs []faults.Event) map[faults.LinkID][]units.Time {
	if len(evs) == 0 {
		return nil
	}
	down := make(map[faults.LinkID]bool)
	out := make(map[faults.LinkID][]units.Time)
	apply := func(id faults.LinkID, d bool, at units.Time) {
		if d != down[id] {
			down[id] = d
			out[id] = append(out[id], at)
		}
	}
	for _, ev := range evs {
		switch {
		case ev.Kind == faults.LinkDown:
			apply(ev.Link, true, ev.At)
		case ev.Kind == faults.LinkUp:
			apply(ev.Link, false, ev.At)
		case ev.Kind.Topological():
			for _, a := range expandTopological(topo, ev) {
				if a.host >= 0 {
					continue // host links never cross shards
				}
				apply(a.id, a.down, ev.At)
			}
		}
	}
	return out
}

// lostBetween turns a link's alternating transition timeline into the
// static loss predicate: a packet sent at tS and arriving at tA is lost
// iff the link is down at tS (transmitted into a dead cable) or a down
// transition fires in (tS, tA] (caught in flight by a flap). The bounds
// match the event order on the sender's engine: a transition at exactly
// tS runs before the send (fault events are installed before any runtime
// event and sort first), so it determines the send-time state; a down at
// exactly tA runs before the arrival (channel 0 sorts before the link's
// packet channel) and drops it.
func lostBetween(times []units.Time) func(sent, arrive units.Time) bool {
	if len(times) == 0 {
		return nil
	}
	return func(sent, arrive units.Time) bool {
		i := sort.Search(len(times), func(i int) bool { return times[i] > sent })
		if i%2 == 1 {
			return true // odd prefix: the link is down at the send instant
		}
		// times[i], if present, is the next down transition.
		return i < len(times) && times[i] <= arrive
	}
}

// wire creates every link of the topology: host<->leaf in both directions
// and switch<->switch (each wired once, from the lower (switch, port)).
// Every link is owned by its sender's shard and gets a globally unique
// pair of ordering channels, assigned in this fixed wiring order so the
// assignment is independent of the shard count. A switch-to-switch link
// whose endpoints land on different shards is put in remote mode: arrivals
// and credit returns relay through the parsim mailboxes.
func (n *Network) wire() {
	cfg := n.cfg
	degraded := make(map[[2]int]float64, len(cfg.DegradedLinks))
	for _, d := range cfg.DegradedLinks {
		degraded[[2]int{d.Switch, d.Port}] = d.Scale
	}
	outBW := func(sw, port int) units.Bandwidth {
		if s, ok := degraded[[2]int{sw, port}]; ok {
			return units.Bandwidth(float64(cfg.LinkBW) * s)
		}
		return cfg.LinkBW
	}
	timeline := downTimeline(n.topo, n.events)
	nextCh := uint32(1)
	newLink := func(sh *netShard, bw units.Bandwidth, dst link.Receiver) *link.Link {
		l := link.New(sh.eng, bw, cfg.PropDelay, cfg.BufPerVC, dst)
		l.SetChannels(nextCh, nextCh+1)
		nextCh += 2
		l.OnDrop = n.onDropFor(sh)
		sh.links = append(sh.links, l)
		return l
	}
	for sw := 0; sw < n.topo.Switches(); sw++ {
		s := n.switches[sw]
		shard := n.swShard[sw]
		sh := n.shards[shard]
		for p := 0; p < n.topo.Radix(sw); p++ {
			peer := n.topo.Peer(sw, p)
			if peer.ID == -1 {
				continue // unwired port
			}
			if peer.IsHost {
				// Host links never cross shards: the host lives on its
				// leaf switch's shard by construction.
				h := n.hosts[peer.ID]
				// Switch -> host (ejection).
				down := newLink(sh, outBW(sw, p), h)
				s.ConnectDownstream(p, down)
				h.SetUpstream(down)
				n.retainLink(faults.LinkID{Switch: sw, Port: p}, down)
				// Host -> switch (injection).
				up := newLink(sh, cfg.LinkBW, s.InputReceiver(p))
				h.ConnectOut(up)
				s.ConnectUpstream(p, up)
				n.links = append(n.links, up)
				n.hostUp[peer.ID] = up
				continue
			}
			// Switch-to-switch: create the sw->peer direction from this
			// side; the peer->sw direction is created when iterating the
			// peer. Each direction is thus created exactly once.
			other := n.switches[peer.ID]
			otherShard := n.swShard[peer.ID]
			l := newLink(sh, outBW(sw, p), other.InputReceiver(peer.Port))
			s.ConnectDownstream(p, l)
			if shard == otherShard {
				other.ConnectUpstream(peer.Port, l)
			} else {
				pktCh, creditCh := l.Channels()
				recv := &relayedArrival{other.InputReceiver(peer.Port)}
				outQ := n.queues[shard][otherShard]
				l.SetRemote(func(at units.Time, p *packet.Packet) {
					outQ.Put(at, pktCh, sim.Payload{H: recv, Kind: sim.KindDeliver, Pkt: p})
				}, lostBetween(timeline[faults.LinkID{Switch: sw, Port: p}]))
				other.ConnectUpstream(peer.Port, &creditPortal{
					q: n.queues[otherShard][shard], eng: n.shards[otherShard].eng,
					l: l, prop: cfg.PropDelay, ch: creditCh,
				})
			}
			n.retainLink(faults.LinkID{Switch: sw, Port: p}, l)
		}
	}
}

// retainLink records a switch output link under its fault address.
func (n *Network) retainLink(id faults.LinkID, l *link.Link) {
	n.links = append(n.links, l)
	n.linkByID[id] = l
}

// installFaults wires the per-link corruption streams and installs the
// configured fault plan. Every plan event executes on the shard owning its
// link, writing its execution record into the event's global slot, so the
// merged trace reassembles in sequential firing order.
func (n *Network) installFaults() {
	plan := n.cfg.Faults
	if plan.Empty() {
		return
	}
	for id, l := range n.linkByID {
		if ber := plan.BEROf(id); ber > 0 {
			l.SetBER(ber, plan.CorruptionStream(id))
		}
	}
	if plan.DefaultBER > 0 {
		for h, l := range n.hostUp {
			if l != nil {
				l.SetBER(plan.DefaultBER, plan.HostCorruptionStream(h))
			}
		}
	}
	evs := n.events
	n.faultSlots = make([]faults.TraceEntry, len(evs))
	n.faultDone = make([]bool, len(evs))
	resolve := func(id faults.LinkID) *link.Link { return n.linkByID[id] }
	record := func(idx int, entry faults.TraceEntry) {
		n.faultSlots[idx] = entry
		n.faultDone[idx] = true
	}
	// Install events one at a time in normalized order so each shard
	// engine's insertion order — which breaks ties at equal times — is the
	// normalized order, matching downTimeline's replay exactly even when a
	// link event and a topological expansion touch the same link in the
	// same cycle.
	for i, ev := range evs {
		if ev.Kind.Behavioural() {
			n.installBehavioural(i, ev, record)
			continue
		}
		if ev.Kind.Topological() {
			n.installTopological(i, ev, record)
			continue
		}
		sh := n.shards[n.swShard[ev.Link.Switch]]
		sh.injector.InstallEvents([]faults.Event{ev}, []int{i}, sh.eng, resolve, record)
	}
	// Behavioural plans also arm the innocent/rogue delivery split: every
	// shard's collector (deliveries land on the destination's shard) gets
	// the read-only set of hosts that misbehave at any point of the run.
	if plan.HasBehavioural() {
		rogues := make(map[int]bool)
		for _, ev := range evs {
			if ev.Kind.Behavioural() {
				rogues[ev.Host] = true
			}
		}
		for _, sh := range n.shards {
			sh.collect.RogueSrcs = rogues
		}
	}
}

// installBehavioural schedules one host-misbehaviour window (RogueFlow or
// DeadlineForge) on the host's shard: the window opens at ev.At — writing
// the event's global trace slot like every other plan kind — and closes at
// ev.Until. Both transitions are host-local state flips, so behavioural
// plans are byte-identical at any shard count.
func (n *Network) installBehavioural(idx int, ev faults.Event, record func(int, faults.TraceEntry)) {
	sh := n.shards[n.hostShard[ev.Host]]
	host := n.hosts[ev.Host]
	sh.eng.At(ev.At, func() {
		switch ev.Kind {
		case faults.RogueFlow:
			host.SetRogue(ev.Scale)
		case faults.DeadlineForge:
			host.SetForge(ev.Scale)
		}
		record(idx, faults.TraceEntry{Event: ev, Applied: true})
	})
	sh.eng.At(ev.Until, func() {
		switch ev.Kind {
		case faults.RogueFlow:
			host.SetRogue(0)
		case faults.DeadlineForge:
			host.SetForge(0)
		}
	})
}

// installTopological schedules one switch or port event: its expanded
// directed-link transitions run on each link's owning shard, and the
// event's home shard (the addressed switch's) additionally applies the
// switch kill/restore and writes the event's global trace slot.
func (n *Network) installTopological(idx int, ev faults.Event, record func(int, faults.TraceEntry)) {
	acts := expandTopological(n.topo, ev)
	byShard := make([][]linkAction, n.nshards)
	for _, a := range acts {
		s := n.swShard[a.id.Switch]
		if a.host >= 0 {
			s = n.hostShard[a.host]
		}
		byShard[s] = append(byShard[s], a)
	}
	home := n.swShard[ev.Link.Switch]
	for s := range n.shards {
		if s != home && len(byShard[s]) == 0 {
			continue
		}
		s, acts := s, byShard[s]
		n.shards[s].eng.At(ev.At, func() {
			applied := false
			if s == home && ev.Kind == faults.SwitchUp {
				// Clear the kill before reopening links, so the senders the
				// link restore re-arbitrates meet a live switch.
				applied = n.switches[ev.Link.Switch].SetDown(false)
			}
			for _, a := range acts {
				was := n.applyLinkAction(a)
				// A port event's trace entry reports the addressed
				// direction (the reverse may independently no-op).
				if s == home && !ev.Kind.SwitchScoped() && a.host < 0 && a.id == ev.Link {
					applied = was
				}
			}
			if s == home {
				if ev.Kind == faults.SwitchDown {
					// Kill after the links dropped: the buffer drain's
					// upstream credit returns land on already-down links,
					// which relay credits out-of-band like live ones.
					applied = n.switches[ev.Link.Switch].SetDown(true)
				}
				record(idx, faults.TraceEntry{Event: ev, Applied: applied})
			}
		})
	}
}

// applyLinkAction applies one expanded link transition, reporting whether
// the link state changed.
func (n *Network) applyLinkAction(a linkAction) bool {
	var l *link.Link
	if a.host >= 0 {
		l = n.hostUp[a.host]
	} else {
		l = n.linkByID[a.id]
	}
	if l == nil {
		return false
	}
	return l.SetDown(a.down)
}

// destinations returns count destinations for host h, spread
// deterministically around the network (never h itself).
func destinations(h, hosts, count int, rng *xrand.Rand) []int {
	dsts := make([]int, 0, count)
	stride := hosts / count
	if stride == 0 {
		stride = 1
	}
	start := rng.Intn(hosts)
	for i := 0; len(dsts) < count && i < hosts; i++ {
		d := (start + i*stride + i) % hosts
		if d == h {
			continue
		}
		dup := false
		for _, e := range dsts {
			if e == d {
				dup = true
				break
			}
		}
		if !dup {
			dsts = append(dsts, d)
		}
	}
	// Fall back to linear fill if the strided walk collided too much.
	for d := 0; len(dsts) < count; d = (d + 1) % hosts {
		if d == h {
			continue
		}
		dup := false
		for _, e := range dsts {
			if e == d {
				dup = true
				break
			}
		}
		if !dup {
			dsts = append(dsts, d)
		}
	}
	return dsts
}

// provisionFlows creates all flow records, reserves regulated bandwidth
// through admission control, and instantiates the traffic sources (each on
// its host's shard engine).
func (n *Network) provisionFlows(rng *xrand.Rand) error {
	cfg := n.cfg
	hosts := n.topo.Hosts()
	var nextFlow packet.FlowID

	classRate := func(cl packet.Class) units.Bandwidth {
		return units.Bandwidth(cfg.Load * cfg.ClassShare[cl] * float64(cfg.LinkBW))
	}

	// Multimedia provisioning: each stream carries the model's mean rate;
	// the stream count fills the class share.
	streamRate := cfg.GoP.MeanRate(cfg.VideoPeriod)
	if len(cfg.VideoTraceFrames) > 0 {
		var sum units.Size
		for _, f := range cfg.VideoTraceFrames {
			sum += f
		}
		streamRate = units.Bandwidth(float64(sum) / float64(len(cfg.VideoTraceFrames)) / float64(cfg.VideoPeriod))
	}
	videoPerHost := 0
	if vr := classRate(packet.Multimedia); vr > 0 {
		videoPerHost = int(float64(vr)/float64(streamRate) + 0.5)
		if videoPerHost == 0 {
			videoPerHost = 1
		}
	}
	n.videoPerHost = videoPerHost

	for h := 0; h < hosts; h++ {
		host := n.hosts[h]
		hostEng := n.shards[n.hostShard[h]].eng
		hostRng := rng.Split(uint64(h) + 1)

		// Control flows: no admission (BWavg = link bandwidth gives them
		// maximum priority), fixed hash-balanced routes.
		if classRate(packet.Control) > 0 {
			var ctl []packet.FlowID
			for _, d := range destinations(h, hosts, cfg.ControlDests, hostRng) {
				nextFlow++
				host.AddFlow(&hostif.Flow{
					ID: nextFlow, Class: packet.Control, Src: h, Dst: d,
					Route: n.adm.RouteBestEffort(h, d, uint64(nextFlow)),
					Mode:  hostif.ByBandwidth, BW: cfg.LinkBW,
				})
				n.registerRepairFlow(h, nextFlow, h, d)
				ctl = append(ctl, nextFlow)
			}
			n.sources = append(n.sources, traffic.NewControl(traffic.ControlConfig{
				Eng: hostEng, Host: host, Rng: hostRng.Split(1), Flows: ctl,
				Rate: classRate(packet.Control), MinMsg: 128, MaxMsg: 2 * units.Kilobyte,
			}))
		}

		// Multimedia streams: reserved through admission control, shaped
		// by eligible time, frame-latency deadlines.
		for v := 0; v < videoPerHost; v++ {
			d := destinations(h, hosts, 1, hostRng)[0]
			route, _, err := n.adm.Reserve(h, d, streamRate)
			if err != nil {
				return fmt.Errorf("network: video stream %d of host %d: %w", v, h, err)
			}
			nextFlow++
			// BW carries the admitted stream rate for the ingress policer
			// (FrameLatency stamping never reads it); Policed opts the flow
			// into rate enforcement and behavioural fault windows.
			host.AddFlow(&hostif.Flow{
				ID: nextFlow, Class: packet.Multimedia, Src: h, Dst: d,
				Route: route, Mode: hostif.FrameLatency, Target: cfg.VideoTarget,
				UseEligible: true, BW: streamRate, Policed: true,
			})
			n.registerRepairFlow(h, nextFlow, h, d)
			if len(cfg.VideoTraceFrames) > 0 {
				n.sources = append(n.sources, traffic.NewVideoTrace(traffic.VideoTraceConfig{
					Eng: hostEng, Host: host, Rng: hostRng.Split(uint64(100 + v)),
					Flow: nextFlow, Period: cfg.VideoPeriod, Frames: cfg.VideoTraceFrames,
				}))
			} else {
				n.sources = append(n.sources, traffic.NewVideo(traffic.VideoConfig{
					Eng: hostEng, Host: host, Rng: hostRng.Split(uint64(100 + v)),
					Flow: nextFlow, Period: cfg.VideoPeriod, GoP: cfg.GoP,
				}))
			}
		}

		// Best-effort and background: aggregated flows per destination
		// with weighted deadline bandwidths (Figure 4's differentiation
		// knob), no reservation.
		for _, cl := range []packet.Class{packet.BestEffort, packet.Background} {
			rate := classRate(cl)
			if rate <= 0 {
				continue
			}
			weight := cfg.BEWeight
			if cl == packet.Background {
				weight = cfg.BGWeight
			}
			dsts := destinations(h, hosts, cfg.BEDests, hostRng)
			if cfg.HotspotFraction > 0 && cfg.HotspotHost != h {
				// Make sure the hotspot destination is among the flows.
				present := false
				for _, d := range dsts {
					if d == cfg.HotspotHost {
						present = true
						break
					}
				}
				if !present {
					dsts[0] = cfg.HotspotHost
				}
			}
			var flows []packet.FlowID
			var hotFlow packet.FlowID
			for _, d := range dsts {
				nextFlow++
				// The class weight doubles as the value density: what a
				// value-aware dropping policy protects and the weighted
				// goodput metric scores (best-effort is worth BEWeight per
				// byte, background BGWeight — the same ratio Figure 4
				// differentiates service by).
				host.AddFlow(&hostif.Flow{
					ID: nextFlow, Class: cl, Src: h, Dst: d,
					Route: n.adm.RouteBestEffort(h, d, uint64(nextFlow)),
					Mode:  hostif.ByBandwidth,
					BW:    units.Bandwidth(weight * float64(rate) / float64(cfg.BEDests)),
					Value: weight,
				})
				n.registerRepairFlow(h, nextFlow, h, d)
				flows = append(flows, nextFlow)
				if d == cfg.HotspotHost {
					hotFlow = nextFlow
				}
			}
			if f := cfg.HotspotFraction; f > 0 && hotFlow != 0 {
				// The source picks bursts uniformly over the flow slice.
				// The hotspot flow already holds 1 of n slots; k extra
				// copies give it weight (1+k)/(n+k) = f, i.e.
				// k = (f*n - 1)/(1 - f).
				k := int((f*float64(len(flows))-1)/(1-f) + 0.5)
				for i := 0; i < k; i++ {
					flows = append(flows, hotFlow)
				}
			}
			n.sources = append(n.sources, traffic.NewSelfSimilar(traffic.SelfSimilarConfig{
				Eng: hostEng, Host: host, Rng: hostRng.Split(uint64(200 + int(cl))),
				Flows: flows, Rate: rate,
				MinFrame: 128, MaxFrame: 100 * units.Kilobyte,
				SizeAlpha: 1.3, BurstAlpha: 1.5,
			}))
		}
	}
	return nil
}

// provisionCoflows builds the coflow manager (running its σ-order
// admission pass against the CAC ledger as provisioned so far), registers
// its per-host flows, and schedules every host's round-0 submission on
// that host's shard. No-op without cfg.Coflows.
func (n *Network) provisionCoflows() error {
	if n.cfg.Coflows == nil {
		return nil
	}
	mgr, err := coflow.New(*n.cfg.Coflows, coflow.Deps{
		Hosts:           n.topo.Hosts(),
		MTU:             n.cfg.MTU,
		LinkBW:          n.cfg.LinkBW,
		Adm:             n.adm,
		Topo:            n.topo,
		Host:            func(h int) *hostif.Host { return n.hosts[h] },
		CoflowDeadlines: policy.IsCoflowAware(n.pol),
	})
	if err != nil {
		return fmt.Errorf("network: %w", err)
	}
	n.coflow = mgr
	for h := 0; h < n.topo.Hosts(); h++ {
		for _, f := range mgr.FlowsFor(h) {
			n.hosts[h].AddFlow(f)
		}
		h := h
		n.shards[n.hostShard[h]].eng.At(mgr.StartAt(), func() { mgr.StartHost(h) })
	}
	return nil
}

// Engine exposes the simulation engine. In a sharded network this is
// shard 0's engine; a caller that schedules its own events should run
// sequentially (Shards <= 1), where it is the only engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Shards returns the effective shard count the network was built with.
func (n *Network) Shards() int { return n.nshards }

// Hosts returns the number of endpoints.
func (n *Network) Hosts() int { return n.topo.Hosts() }

// Host returns host h's NIC.
func (n *Network) Host(h int) *hostif.Host { return n.hosts[h] }

// Admission returns the admission controller.
func (n *Network) Admission() *admission.Controller { return n.adm }

// Collector returns the live statistics collector (shard 0's in a sharded
// network; the full merge happens when Run returns).
func (n *Network) Collector() *stats.Collector { return n.collect }

// Run starts all traffic sources, executes the simulation through warm-up
// plus measurement — across shard engines when Shards > 1 — and returns
// the merged results, identical at every shard count.
func (n *Network) Run() *Results {
	for _, src := range n.sources {
		src.Start()
	}
	n.startProbes()
	horizon := n.cfg.WarmUp + n.cfg.Measure

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wall0 := time.Now()
	if n.nshards == 1 {
		n.eng.Run(horizon)
	} else {
		lps := make([]*parsim.LP, n.nshards)
		for i, sh := range n.shards {
			var in []*parsim.Queue
			for j := range n.shards {
				if q := n.queues[j][i]; q != nil {
					in = append(in, q)
				}
			}
			lps[i] = &parsim.LP{Eng: sh.eng, In: in}
		}
		parsim.Run(lps, horizon, n.lookahead)
	}
	wall := time.Since(wall0)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	// Coflow outcomes fold before the final publish so the end-of-run
	// metrics snapshot carries them. The engines have stopped; the main
	// goroutine may read every shard's slots.
	var cofRes *coflow.Results
	if n.coflow != nil {
		cofRes = n.coflow.BuildResults()
		n.bumpCoflowMetrics(cofRes)
	}

	// Final gauge sample + snapshot publish for every shard, so a scrape
	// after Run (and the end-of-run render) sees the horizon state. The
	// engines have stopped; the main goroutine may read any shard.
	for i := range n.shards {
		n.publishMetrics(i, horizon)
	}

	// Merge the shards: every recorded quantity is either summed with an
	// order-independent integer merge or reassembled in a canonical order,
	// so the merged results are byte-identical to a sequential run's.
	for _, sh := range n.shards[1:] {
		n.collect.Merge(sh.collect)
	}
	if n.nshards > 1 {
		for _, sh := range n.shards {
			n.cfg.Tracer.Absorb(sh.tracer)
		}
		if n.shards[0].telemetry != nil {
			merged := n.shards[0].telemetry
			for _, sh := range n.shards[1:] {
				merged.Absorb(sh.telemetry)
			}
			merged.Sort()
			n.telemetry = merged
		}
	} else {
		n.telemetry = n.shards[0].telemetry
	}

	res := &Results{
		Config:              n.cfg,
		Collector:           n.collect,
		VideoStreamsPerHost: n.videoPerHost,
		Policy:              n.pol.Name(),
		Coflows:             cofRes,
		Telemetry:           n.telemetry,
		Perf: trace.Profile{
			SimulatedNs: int64(horizon),
			WallNs:      wall.Nanoseconds(),
			Mallocs:     ms1.Mallocs - ms0.Mallocs,
			AllocBytes:  ms1.TotalAlloc - ms0.TotalAlloc,
		},
	}
	for _, sh := range n.shards {
		res.SimEvents += sh.eng.Fired()
		res.Perf.Events += sh.eng.Fired()
		res.Perf.MaxPending += sh.eng.MaxPending()
	}
	res.Perf.Finalize()
	for _, sw := range n.switches {
		st := sw.Stats()
		res.OrderErrors += st.OrderErrors
		res.TakeOvers += st.TakeOvers
		res.XbarTransfers += st.XbarTransfers
		res.LinkSends += st.LinkSends
		res.PendingAtHorizon += sw.Queued()
	}
	for _, h := range n.hosts {
		res.PendingAtHorizon += h.Pending()
	}

	// Close the conservation books with the packets still held.
	cons := n.Conservation()
	cons.StagedAtStop, cons.InNetworkAtStop = n.held()
	for _, h := range n.hosts {
		res.Reliability.Add(h.RelCounters())
		res.OutstandingAtStop += h.Outstanding()
	}
	for _, l := range n.links {
		res.CorruptedInFlight += l.Corrupted()
	}
	if n.sessMgr != nil {
		sessCnt := n.shards[0].sess
		for _, sh := range n.shards[1:] {
			sessCnt.Merge(sh.sess)
		}
		res.Sessions = n.sessMgr.BuildResults(sessCnt)
		res.ControlPlane = res.Sessions.ControlPlane
	}
	res.LostOnLink = cons.LostOnLink
	res.Conservation = cons
	for _, done := range n.faultDone {
		if done {
			res.FaultEvents++
		}
	}
	res.FaultTrace = n.FaultTrace()
	n.buildAvailability(res)
	if n.cfg.Police {
		ps := &PoliceSummary{}
		for cl := range res.PerClass {
			ps.ByClass[cl] = res.PerClass[cl].PolicedPackets
			ps.Demoted += res.PerClass[cl].PolicedPackets
			ps.Forged += res.PerClass[cl].PolicedForged
		}
		ps.InnocentDelivered = res.InnocentDelivered
		ps.InnocentMissed = res.InnocentMissed
		ps.RogueDelivered = res.RogueDelivered
		ps.RogueMissed = res.RogueMissed
		res.Police = ps
	}
	n.buildGrayReport(res)
	return res
}

// PoliceSummary is the run-level digest of the ingress policer.
type PoliceSummary struct {
	// Demoted counts packets the policer sent to the best-effort VC;
	// Forged is the subset caught by the deadline-forgery test (the rest
	// exceeded their sustained rate). ByClass splits Demoted by class.
	Demoted uint64
	Forged  uint64
	ByClass [packet.NumClasses]uint64
	// The innocent/rogue multimedia delivery split (zero unless the fault
	// plan had behavioural events): the isolation metric compares
	// InnocentMissed/InnocentDelivered to a no-rogue baseline.
	InnocentDelivered uint64
	InnocentMissed    uint64
	RogueDelivered    uint64
	RogueMissed       uint64
}

func (ps *PoliceSummary) String() string {
	return fmt.Sprintf("demoted=%d (forged=%d) innocent frames missed=%d/%d rogue frames missed=%d/%d",
		ps.Demoted, ps.Forged, ps.InnocentMissed, ps.InnocentDelivered,
		ps.RogueMissed, ps.RogueDelivered)
}

// FaultTrace returns the fault events executed so far, in the sequential
// firing order (live view; Run's Results carry the final copy).
func (n *Network) FaultTrace() []faults.TraceEntry {
	var out []faults.TraceEntry
	for i, done := range n.faultDone {
		if done {
			out = append(out, n.faultSlots[i])
		}
	}
	return out
}

// held counts the packets not yet in a terminal state: staged at a NIC,
// or inside the fabric (switch buffers, crossbars mid-transfer, link
// wires).
func (n *Network) held() (staged, inNetwork uint64) {
	for _, h := range n.hosts {
		staged += uint64(h.Pending())
	}
	for _, sw := range n.switches {
		inNetwork += uint64(sw.Queued() + sw.InTransit())
	}
	for _, l := range n.links {
		inNetwork += l.InFlight()
	}
	return staged, inNetwork
}

// Conservation returns the current conservation counters, summed over
// shards, without the end-of-run staged/in-network census (those are only
// meaningful at stop).
func (n *Network) Conservation() faults.Conservation {
	var cons faults.Conservation
	for _, sh := range n.shards {
		cons.Add(sh.cons)
	}
	return cons
}

// Run builds and executes one simulation.
func Run(cfg Config) (*Results, error) {
	n, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return n.Run(), nil
}
