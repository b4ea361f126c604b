// Package coflow groups the flows of a collective transfer under shared
// coflow-level deadlines, the abstraction the per-packet deadline model of
// the paper cannot express: a collective round is only as done as its last
// member, so every packet of the round should carry the ROUND's completion
// deadline, and a round that cannot finish by its deadline is worth more
// rejected up front than half-delivered late (DCoflow, arXiv 2205.01229).
//
// The workload is an MPI-style ring collective: N hosts, Rounds rounds, in
// round r every host h sends one Chunk to (h+1) mod N, and h may start
// round r+1 only after receiving round r. Round r is one coflow of N
// member transfers with deadline StartAt + (r+1)·B, where the per-round
// budget B is roundBudget chunk serialisation times.
//
// At build time the manager runs a DCoflow-style σ-order admission pass
// over the session CAC's ledger: coflows in deadline order, each admitted
// iff on every link its members cross the cumulative admitted volume still
// fits the link's uncommitted capacity × time-to-deadline. Admitted rounds
// travel regulated (their sustained rate is reserved through the CAC along
// the members' routes); rejected rounds still run, demoted to best-effort,
// where a value-aware policy may shed them first. Under a CoflowAware
// scheduling policy (policy.CoflowEDF) every packet of an admitted round
// is stamped with the round's absolute deadline; under any other policy
// the same traffic gets ordinary virtual-clock deadlines at the reserved
// rate, which is exactly the per-packet-EDF baseline E8 compares against.
//
// Shard-safety: all mutable ring state is keyed by the receiving host, and
// every transition happens on that host's shard — the delivery hook runs
// on the destination's shard, and the ring's "receive round r, submit
// round r+1" rule makes the receiver also the next submitter. No
// cross-shard mutation exists, so results are byte-identical at any shard
// count.
package coflow

import (
	"fmt"

	"deadlineqos/internal/admission"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/units"
)

// Flow-id ranges of the coflow driver, disjoint from the static traffic
// flows (small integers) and the session plane (0x4000_0000 and up).
const (
	// AdmittedBase + h is host h's regulated coflow flow.
	AdmittedBase packet.FlowID = 0x2000_0000
	// RejectedBase + h is host h's best-effort (rejected-round) flow.
	RejectedBase packet.FlowID = 0x2100_0000
)

const (
	kindAdmitted = 0
	kindRejected = 1
)

// roundBudget is each round's deadline budget in chunk serialisation
// times: loose enough to admit everything on an idle fabric, tight enough
// that deadlines mean something.
const roundBudget = 8

// Config parameterises the ring-collective coflow workload.
type Config struct {
	// Rounds is the number of collective rounds (= coflows). 0 selects
	// hosts−1, a full ring all-gather.
	Rounds int
	// Chunk is the per-member payload per round (0 selects 16 KB).
	Chunk units.Size
	// StartAt is the oracle time round 0 is submitted at every host.
	StartAt units.Time
}

// WithDefaults fills zero fields for a ring over the given host count.
func (c Config) WithDefaults(hosts int) Config {
	if c.Rounds == 0 {
		c.Rounds = hosts - 1
	}
	if c.Chunk == 0 {
		c.Chunk = 16 * units.Kilobyte
	}
	return c
}

// Validate rejects configurations that would wire a degenerate ring.
func (c Config) Validate(hosts int) error {
	if hosts < 2 {
		return fmt.Errorf("coflow: ring needs at least 2 hosts, have %d", hosts)
	}
	if c.Rounds < 0 {
		return fmt.Errorf("coflow: negative rounds %d", c.Rounds)
	}
	if c.Chunk < 0 {
		return fmt.Errorf("coflow: negative chunk size %v", c.Chunk)
	}
	if c.StartAt < 0 {
		return fmt.Errorf("coflow: negative start time %v", c.StartAt)
	}
	return nil
}

// wireBytes returns the on-wire volume of one chunk after MTU segmentation
// (payload plus per-packet headers).
func wireBytes(chunk, mtu units.Size) units.Size {
	maxPayload := mtu - packet.HeaderSize
	parts := (chunk + maxPayload - 1) / maxPayload
	return chunk + parts*packet.HeaderSize
}

// Deps are the network-provided dependencies. The manager deliberately
// does not import the network package: the network wires these in.
type Deps struct {
	Hosts  int
	MTU    units.Size
	LinkBW units.Bandwidth
	// Adm is the session CAC the σ-pass reads capacity from and reserves
	// admitted volume through.
	Adm  *admission.Controller
	Topo topology.Topology
	// Host resolves a host index to its NIC.
	Host func(int) *hostif.Host
	// CoflowDeadlines mirrors policy.IsCoflowAware: when set, admitted
	// rounds are stamped with the round's absolute deadline.
	CoflowDeadlines bool
}

// hostState is the ring state of one host AS RECEIVER (and therefore as
// the submitter of the following round). Only this host's shard touches
// it.
type hostState struct {
	got       [2]int // delivered packets per kind
	completed [2]int // fully received chunks per kind
	next      int    // next round this host will submit
	done      []bool // rounds fully received at this host
}

// Manager owns one ring-collective coflow workload: the admission verdict,
// the per-host flows, and the per-shard runtime state.
type Manager struct {
	cfg   Config
	deps  Deps
	n     int
	parts int // packets per chunk

	perRound  units.Time      // per-round deadline budget
	deadlines []units.Time    // per-round completion deadline (oracle time)
	admitted  []bool          // σ-pass verdict per round
	admRate   units.Bandwidth // sustained rate reserved per member edge
	roundsOf  [2][]int        // round indices per kind, ascending
	routes    [][]int         // member route per source host

	admFlows []*hostif.Flow
	rejFlows []*hostif.Flow

	host   []hostState
	doneAt []units.Time // [round*n + dst]: member completion (0 = pending)
}

// New builds the manager: routes every member, runs the σ-order admission
// pass against the CAC's current ledger, reserves the admitted volume, and
// prepares (but does not register) the per-host flow records.
func New(cfg Config, deps Deps) (*Manager, error) {
	cfg = cfg.WithDefaults(deps.Hosts)
	if err := cfg.Validate(deps.Hosts); err != nil {
		return nil, err
	}
	maxPayload := deps.MTU - packet.HeaderSize
	if maxPayload <= 0 {
		return nil, fmt.Errorf("coflow: MTU %v leaves no payload", deps.MTU)
	}
	n := deps.Hosts
	m := &Manager{
		cfg:      cfg,
		deps:     deps,
		n:        n,
		parts:    int((cfg.Chunk + maxPayload - 1) / maxPayload),
		perRound: roundBudget * deps.LinkBW.TxTime(wireBytes(cfg.Chunk, deps.MTU)),
		host:     make([]hostState, n),
	}
	m.deadlines = make([]units.Time, cfg.Rounds)
	for r := 0; r < cfg.Rounds; r++ {
		m.deadlines[r] = cfg.StartAt + units.Time(r+1)*m.perRound
	}
	m.routes = make([][]int, n)
	for h := 0; h < n; h++ {
		m.routes[h] = deps.Adm.RouteBestEffort(h, (h+1)%n, uint64(AdmittedBase)+uint64(h))
	}
	m.sigmaAdmit()
	m.buildFlows()
	m.doneAt = make([]units.Time, cfg.Rounds*n)
	for h := range m.host {
		m.host[h].done = make([]bool, cfg.Rounds)
	}
	return m, nil
}

// sigmaAdmit is the DCoflow-style σ-order pass: coflows in deadline order
// (ring rounds already are), each admitted iff every link its members
// cross can carry the cumulative admitted volume before the coflow's
// deadline, against the capacity the CAC has not already committed.
// Rejection is permanent and frees the capacity for later (larger-slack)
// rounds — the "reject early, run best-effort" rule.
func (m *Manager) sigmaAdmit() {
	wire := wireBytes(m.cfg.Chunk, m.deps.MTU)

	// Per-link availability (bytes/cycle) and member count. Fabric and
	// ejection links come from the routes' hop expansion; each member also
	// crosses its source's injection cable, which the CAC ledgers
	// separately.
	type edge struct{ sw, port int }
	avail := make(map[edge]float64)
	members := make(map[edge]int)
	for h := 0; h < m.n; h++ {
		for _, hop := range topology.RouteHops(m.deps.Topo, h, m.routes[h]) {
			e := edge{hop.Switch, hop.OutPort}
			members[e]++
			if _, ok := avail[e]; !ok {
				avail[e] = float64(m.deps.Adm.LinkLimit(hop.Switch, hop.OutPort) - m.deps.Adm.Reserved(hop.Switch, hop.OutPort))
			}
		}
	}
	injAvail := make([]float64, m.n)
	for h := 0; h < m.n; h++ {
		injAvail[h] = m.deps.Adm.MaxUtil()*float64(m.deps.LinkBW) - float64(m.deps.Adm.HostReserved(h))
	}

	m.admitted = make([]bool, m.cfg.Rounds)
	cum := 0.0 // admitted wire bytes per member so far (identical on every edge of one member)
	for r := 0; r < m.cfg.Rounds; r++ {
		horizon := float64(m.deadlines[r] - m.cfg.StartAt)
		need := cum + float64(wire)
		ok := true
		for e, cnt := range members {
			if need*float64(cnt) > avail[e]*horizon {
				ok = false
				break
			}
		}
		if ok {
			for h := 0; h < m.n && ok; h++ {
				ok = need <= injAvail[h]*horizon
			}
		}
		if ok {
			m.admitted[r] = true
			cum = need
			m.roundsOf[kindAdmitted] = append(m.roundsOf[kindAdmitted], r)
		} else {
			m.roundsOf[kindRejected] = append(m.roundsOf[kindRejected], r)
		}
	}

	// Reserve the admitted volume through the CAC as a sustained rate per
	// member edge, so later admissions (sessions, repairs) see it. The
	// σ-pass above already proved feasibility, hence Restore.
	if nAdm := len(m.roundsOf[kindAdmitted]); nAdm > 0 {
		last := m.roundsOf[kindAdmitted][nAdm-1]
		rate := units.Bandwidth(cum / float64(m.deadlines[last]-m.cfg.StartAt))
		if rate > 0 {
			for h := 0; h < m.n; h++ {
				m.deps.Adm.Restore(h, m.routes[h], rate)
			}
		}
		m.admRate = rate
	}
}

// buildFlows prepares the two per-host flow records. The admitted flow is
// regulated (Multimedia class) at the reserved rate; the rejected flow is
// best-effort. Both carry value density 1, what a value-aware dropping
// policy weighs rejected rounds by.
func (m *Manager) buildFlows() {
	m.admFlows = make([]*hostif.Flow, m.n)
	m.rejFlows = make([]*hostif.Flow, m.n)
	wire := wireBytes(m.cfg.Chunk, m.deps.MTU)
	beRate := units.Bandwidth(float64(wire) / float64(m.perRound))
	admRate := m.admRate
	if admRate <= 0 {
		admRate = beRate // unused unless a round is admitted; keep positive
	}
	for h := 0; h < m.n; h++ {
		dst := (h + 1) % m.n
		// Admitted rounds ride a σ-pass reservation of admRate, so the
		// ingress policer holds them to it; rejected rounds are unreserved
		// best effort and stay unpoliced.
		m.admFlows[h] = &hostif.Flow{
			ID: AdmittedBase + packet.FlowID(h), Class: packet.Multimedia,
			Src: h, Dst: dst, Route: m.routes[h],
			Mode: hostif.ByBandwidth, BW: admRate, Value: 1,
			Policed: true,
		}
		if m.deps.CoflowDeadlines {
			m.admFlows[h].Mode = hostif.Absolute
		}
		m.rejFlows[h] = &hostif.Flow{
			ID: RejectedBase + packet.FlowID(h), Class: packet.BestEffort,
			Src: h, Dst: dst, Route: m.routes[h],
			Mode: hostif.ByBandwidth, BW: beRate, Value: 1,
		}
	}
}

// FlowsFor returns the flow records to register at host h.
func (m *Manager) FlowsFor(h int) []*hostif.Flow {
	return []*hostif.Flow{m.admFlows[h], m.rejFlows[h]}
}

// StartAt returns the oracle time round 0 must be submitted.
func (m *Manager) StartAt() units.Time { return m.cfg.StartAt }

// StartHost submits host h's round-0 chunk. The network schedules it at
// StartAt on h's shard.
func (m *Manager) StartHost(h int) {
	m.submitRound(h, 0)
	m.host[h].next = 1
}

// flowOf resolves a delivered packet's flow id to (kind, member source),
// or ok=false for non-coflow traffic.
func (m *Manager) flowOf(id packet.FlowID) (kind, src int, ok bool) {
	switch {
	case id >= AdmittedBase && id < AdmittedBase+packet.FlowID(m.n):
		return kindAdmitted, int(id - AdmittedBase), true
	case id >= RejectedBase && id < RejectedBase+packet.FlowID(m.n):
		return kindRejected, int(id - RejectedBase), true
	}
	return 0, 0, false
}

// OnDelivered advances the ring on a packet delivery at its destination.
// It runs inside the destination host's delivery hook, i.e. on that host's
// shard — the only shard that ever touches this host's state, which is
// what keeps the driver byte-identical at any shard count.
//
// Chunk completion is counted, not sequenced: after k·parts deliveries on
// one flow, k chunks arrived, and submissions on a flow are in round order
// by the ring's gating rule, so the k-th completed chunk is the k-th round
// of that flow's kind. (Under faults, retransmissions may interleave parts
// of adjacent rounds, which can time a completion one packet early; counts
// and determinism are unaffected.)
func (m *Manager) OnDelivered(p *packet.Packet, now units.Time) {
	kind, _, ok := m.flowOf(p.Flow)
	if !ok {
		return
	}
	d := p.Dst
	st := &m.host[d]
	st.got[kind]++
	if st.got[kind]%m.parts != 0 {
		return
	}
	i := st.completed[kind]
	st.completed[kind]++
	if i >= len(m.roundsOf[kind]) {
		return
	}
	r := m.roundsOf[kind][i]
	m.doneAt[r*m.n+d] = now
	st.done[r] = true
	// The ring's frontier rule: submit every round whose predecessor round
	// has now fully arrived here.
	for st.next < m.cfg.Rounds && st.done[st.next-1] {
		m.submitRound(d, st.next)
		st.next++
	}
}

// submitRound submits host h's chunk of round r, on h's shard.
func (m *Manager) submitRound(h, r int) {
	id := RejectedBase + packet.FlowID(h)
	if m.admitted[r] {
		id = AdmittedBase + packet.FlowID(h)
		if m.deps.CoflowDeadlines {
			// The round's shared absolute deadline, rewritten before the
			// synchronous SubmitMessage below stamps the packets.
			m.deps.Host(h).Flow(id).AbsDeadline = m.deadlines[r]
		}
	}
	m.deps.Host(h).SubmitMessage(id, m.cfg.Chunk)
}

// Results summarises the collective after the run. Built once, post-run,
// from the merged per-host completion slots.
type Results struct {
	// Coflows is the number of rounds; Admitted/Rejected the σ-pass split.
	Coflows  int `json:"coflows"`
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`
	// Completed counts rounds every member delivered before the run
	// stopped; DeadlineMet those that completed by their deadline.
	Completed   int `json:"completed"`
	DeadlineMet int `json:"deadline_met"`
	// AdmittedCompleted/AdmittedMet restrict the two counts to admitted
	// rounds — the quality of the σ-pass's promises.
	AdmittedCompleted int `json:"admitted_completed"`
	AdmittedMet       int `json:"admitted_met"`
	// AllDone reports whether every round completed; CompletionTime is
	// the last member delivery minus StartAt (only meaningful when
	// AllDone).
	AllDone        bool       `json:"all_done"`
	CompletionTime units.Time `json:"completion_time_ns"`
	// MaxLateness is the worst doneAt − deadline over completed rounds
	// (negative = every completed round was early).
	MaxLateness units.Time `json:"max_lateness_ns"`
}

// MissRate returns the fraction of coflows that did not meet their
// deadline (incomplete rounds count as missed).
func (r *Results) MissRate() float64 {
	if r.Coflows == 0 {
		return 0
	}
	return float64(r.Coflows-r.DeadlineMet) / float64(r.Coflows)
}

// BuildResults folds the per-host completion slots into the run summary.
// Call only after every shard has stopped.
func (m *Manager) BuildResults() *Results {
	res := &Results{
		Coflows:  m.cfg.Rounds,
		Admitted: len(m.roundsOf[kindAdmitted]),
		Rejected: len(m.roundsOf[kindRejected]),
	}
	res.MaxLateness = -1 << 62
	var lastDone units.Time
	allDone := true
	for r := 0; r < m.cfg.Rounds; r++ {
		var doneAt units.Time
		complete := true
		for d := 0; d < m.n; d++ {
			t := m.doneAt[r*m.n+d]
			if t == 0 {
				complete = false
				break
			}
			if t > doneAt {
				doneAt = t
			}
		}
		if !complete {
			allDone = false
			continue
		}
		res.Completed++
		if m.admitted[r] {
			res.AdmittedCompleted++
		}
		if late := doneAt - m.deadlines[r]; late > res.MaxLateness {
			res.MaxLateness = late
		}
		if doneAt <= m.deadlines[r] {
			res.DeadlineMet++
			if m.admitted[r] {
				res.AdmittedMet++
			}
		}
		if doneAt > lastDone {
			lastDone = doneAt
		}
	}
	res.AllDone = allDone
	if allDone {
		res.CompletionTime = lastDone - m.cfg.StartAt
	}
	if res.Completed == 0 {
		res.MaxLateness = 0
	}
	return res
}

// AdmittedRounds returns the σ-pass verdict per round (read-only view for
// tests and reports).
func (m *Manager) AdmittedRounds() []bool { return m.admitted }

// Deadline returns round r's completion deadline.
func (m *Manager) Deadline(r int) units.Time { return m.deadlines[r] }
