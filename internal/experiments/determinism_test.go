package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/coflow"
	"deadlineqos/internal/faults"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/metrics"
	"deadlineqos/internal/network"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/policy"
	"deadlineqos/internal/session"
	"deadlineqos/internal/soak"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
)

// The determinism harness (DESIGN.md §9). For every scenario in the
// table, a run split across N engine shards must produce byte-identical
// statistics snapshots, trace output, telemetry, metrics, conservation
// accounting and fault traces to the sequential engine with the same
// config and seed. The sequential run is also pinned against committed
// per-section digests (testdata/shard_determinism.txt), so a change that
// moves any result fails here naming the scenario and the section, and
// an observed row must hash equal to its bare twin on every model
// section: attaching the observer changed no result.

var update = flag.Bool("update", false, "rewrite "+digestPath+" from the sequential runs")

// digestPath holds the committed digests, one "<row> <section> <value>"
// line per section plus "<row> events <n>".
const digestPath = "testdata/shard_determinism.txt"

// detScenario is one config variation to cross-check.
type detScenario struct {
	name string
	cfg  func() network.Config
	// traced attaches a fresh sampling tracer to every run and adds its
	// JSONL export as the trace-jsonl section.
	traced bool
	// twin names the bare row this observed row runs with observers
	// added: every model section must hash equal to the twin's.
	twin string
	// check is a sanity check on the sequential run: it proves the row
	// exercises what it claims to.
	check func(res *network.Results, fp fingerprint) error
	// arm names the test TestShardDeterminism<arm> that runs this row;
	// TestShardDeterminism runs the rows with none.
	arm string
}

// detBase is the shared scenario base: the quick 16-host network with a
// window short enough to run each scenario at three shard counts.
func detBase() network.Config {
	cfg := network.SmallConfig()
	cfg.WarmUp = 500 * units.Microsecond
	cfg.Measure = 3 * units.Millisecond
	if raceEnabled {
		// The race detector costs ~10-20x per run; byte-equality over a
		// shorter window still exercises every merge path.
		cfg.WarmUp = 200 * units.Microsecond
		cfg.Measure = 800 * units.Microsecond
	}
	cfg.Load = 0.8
	cfg.CheckInvariants = true
	return cfg
}

// rogueGuarded is babbling rogues against the full protection plane.
func rogueGuarded() network.Config {
	cfg := detBase()
	cfg.Load = 1.0
	horizon := cfg.WarmUp + cfg.Measure
	cfg.Faults = RoguePlan(cfg.Topology.Hosts(), horizon/8, horizon, 4)
	cfg.Police = true
	cfg.GuardBytes = 8 * units.Kilobyte
	return cfg
}

// churnFull is saturating session churn at full load.
func churnFull() network.Config {
	cfg := detBase()
	cfg.Load = 1.0
	cfg.Sessions = ChurnSessions(100 * units.Microsecond)
	return cfg
}

// valueDropHotspot is a best-effort hotspot into bounded value-aware
// injection queues.
func valueDropHotspot() network.Config {
	cfg := detBase()
	cfg.Load = 1.0
	cfg.ClassShare = [packet.NumClasses]float64{0.1, 0.1, 0.6, 0.2}
	cfg.HotspotFraction = 0.7
	cfg.HotspotHost = 0
	cfg.Policy = policy.ValueDrop(32*units.Kilobyte, false)
	return cfg
}

// switchFailUplink is the fabric cable the switch-failure row cuts and
// restores: SmallConfig's leaf 0 reaches spine 5 through port 5.
var switchFailUplink = faults.LinkID{Switch: 0, Port: 5}

// delegatedChurn is the delegated control plane under a flash crowd with
// bounded control queues, probes and the metrics plane.
func delegatedChurn() network.Config {
	cfg := detBase()
	s := ChurnSessions(80 * units.Microsecond)
	s.Delegation = true
	s.LocalFrac = 0.5
	s.CtlService = 300 * units.Nanosecond
	s.CtlQueueCap = 8
	s.FlashFactor = 6
	s.FlashAt = cfg.WarmUp
	s.FlashLen = cfg.Measure / 4
	cfg.Sessions = s
	cfg.ProbeInterval = 100 * units.Microsecond
	cfg.Metrics = metrics.NewRegistry()
	return cfg
}

// detScenarios covers every recording subsystem: plain stats, order
// oracles, clock skew, hotspots, degraded links, fault injection with
// end-to-end reliability, packet-lifecycle tracing, telemetry probes, the
// metrics plane and flight recorder, and trace-driven video across the
// switch architectures.
func detScenarios() []detScenario {
	return []detScenario{
		{name: "baseline-advanced", cfg: detBase},
		{name: "traditional-vctable", cfg: func() network.Config {
			cfg := detBase()
			cfg.Arch = arch.Traditional2VC
			cfg.Load = 1.0
			cfg.VCArbitrationTable = []packet.VC{packet.VCRegulated, packet.VCBestEffort}
			return cfg
		}},
		{name: "ideal-skew",
			// The heap oracle: a heap buffer always emits its minimum, so
			// tracking must count no order error.
			cfg: func() network.Config {
				cfg := detBase()
				cfg.Arch = arch.Ideal
				cfg.ClockSkewMax = 5 * units.Microsecond
				cfg.TrackOrderErrors = true
				return cfg
			},
			check: func(res *network.Results, _ fingerprint) error {
				if res.OrderErrors != 0 {
					return fmt.Errorf("heap buffers counted %d order errors", res.OrderErrors)
				}
				return nil
			}},
		{name: "simple-hotspot",
			// The FIFO oracle behind S1's Simple row: FIFO heads emit
			// packets the buffer holds a smaller deadline for.
			cfg: func() network.Config {
				cfg := detBase()
				cfg.Arch = arch.Simple2VC
				cfg.HotspotFraction = 0.5
				cfg.HotspotHost = 0
				cfg.TrackOrderErrors = true
				return cfg
			},
			check: func(res *network.Results, _ fingerprint) error {
				if res.OrderErrors == 0 {
					return errors.New("no order errors; the FIFO oracle is untested")
				}
				return nil
			}},
		{name: "order-errors-unshaped", cfg: func() network.Config {
			cfg := detBase()
			cfg.TrackOrderErrors = true
			cfg.EligibleLead = 0
			return cfg
		}},
		{name: "degraded-links", cfg: func() network.Config {
			cfg := detBase()
			cfg.DegradedLinks = []network.DegradedLink{
				{Switch: 0, Port: 0, Scale: 0.5},
				{Switch: 4, Port: 1, Scale: 0.7},
			}
			return cfg
		}},
		{name: "faults-reliability", cfg: func() network.Config {
			cfg := detBase()
			cfg.Faults = ChaosPlan(cfg.Seed+7, cfg.Topology, cfg.WarmUp+cfg.Measure)
			cfg.Reliability = hostif.Reliability{Enabled: true}
			return cfg
		},
			check: func(res *network.Results, _ fingerprint) error {
				return relNonZero(res, "Demoted")
			}},
		{name: "telemetry-probes", twin: "baseline-advanced", cfg: func() network.Config {
			cfg := detBase()
			cfg.ProbeInterval = 100 * units.Microsecond
			return cfg
		}},
		{name: "video-trace", cfg: func() network.Config {
			cfg := detBase()
			cfg.VideoTraceFrames = []units.Size{
				24 * units.Kilobyte, 8 * units.Kilobyte, 6 * units.Kilobyte,
				10 * units.Kilobyte, 7 * units.Kilobyte, 12 * units.Kilobyte,
			}
			return cfg
		}},
		// Saturating session churn at full load: the CAC rejects, clients
		// retry and downgrade, and every decision (and its in-band round
		// trip) must land identically at any shard count.
		{name: "churn", cfg: churnFull},
		{name: "churn-observed", twin: "churn",
			// The same churn with the metrics plane, the flight recorder
			// (fed by a full-sampling tracer that keeps no log) and the
			// tightest miss-burst SLO armed. The deterministic render
			// must name the instruments every layer records into.
			cfg: func() network.Config {
				cfg := churnFull()
				cfg.Metrics = metrics.NewRegistry()
				// New fails only on a sample rate or cap out of range.
				cfg.Tracer, _ = trace.New(trace.Config{
					SampleRate: 1, DiscardEvents: true, Flight: trace.NewFlightRecorder(0),
				})
				cfg.MissBurstCount = 1
				return cfg
			},
			check: func(_ *network.Results, fp fingerprint) error {
				return fp.renders("metrics",
					"qos_host_delivered_total", "qos_link_tx_packets_total",
					"qos_buffer_enqueued_total", "qos_session_accepted_total",
					"qos_delivery_slack_ns", "qos_admission_reserves_total")
			}},
		{name: "churn-faults-probes", cfg: func() network.Config {
			// Churn with runtime derates (revocation path) and the session
			// telemetry series on.
			cfg := detBase()
			cfg.Sessions = ChurnSessions(60 * units.Microsecond)
			cfg.Faults = ChurnPlan(cfg.Seed+11, cfg.Topology, cfg.WarmUp+cfg.Measure)
			cfg.ProbeInterval = 100 * units.Microsecond
			return cfg
		}},
		{name: "switch-failure",
			// Whole-switch outages with route repair, session
			// reroute-or-revoke, and the reliability layer recovering the
			// packets the dead switch discarded; a fabric uplink cut and
			// restored while sessions run adds the port-repair path.
			cfg: func() network.Config {
				cfg := detBase()
				horizon := cfg.WarmUp + cfg.Measure
				cfg.Sessions = ChurnSessions(300 * units.Microsecond)
				cfg.Reliability = hostif.Reliability{Enabled: true}
				cfg.Faults = SwitchFaultPlan(cfg.Seed+13, cfg.Topology, horizon, horizon/2)
				cfg.Faults.Events = append(cfg.Faults.Events,
					faults.Event{At: horizon / 2, Link: switchFailUplink, Kind: faults.PortDown},
					faults.Event{At: 3 * horizon / 4, Link: switchFailUplink, Kind: faults.PortUp})
				return cfg
			},
			check: func(res *network.Results, _ fingerprint) error {
				var down, up bool
				for _, e := range res.FaultTrace {
					if e.Applied && e.Link == switchFailUplink {
						down = down || e.Kind == faults.PortDown
						up = up || e.Kind == faults.PortUp
					}
				}
				if !down || !up {
					return fmt.Errorf("uplink %v not cut and restored (down=%v up=%v)", switchFailUplink, down, up)
				}
				return nil
			}},
		{name: "delegated-churn",
			// Delegated control plane under a flash crowd with bounded
			// control queues: local grants, escalations, lease growth and
			// returns, shedding, the per-entity session telemetry and the
			// published delegation and admission counters must all land
			// identically at any shard count.
			cfg: delegatedChurn,
			check: func(_ *network.Results, fp fingerprint) error {
				return fp.nonZero("qos_session_local_grants_total", "qos_session_escalated_total",
					"qos_session_shed_total", "qos_admission_rejects_total")
			}},
		{name: "delegated-faults",
			// The same delegated churn under whole-switch outages, derated
			// ejection links and a cut fabric uplink: every delegate's
			// derate victim loop, revocation and stranded-session repair
			// must land identically at any shard count.
			cfg: func() network.Config {
				cfg := delegatedChurn()
				horizon := cfg.WarmUp + cfg.Measure
				cfg.Faults = SwitchFaultPlan(cfg.Seed+13, cfg.Topology, horizon, horizon/2)
				for h := 0; h < cfg.Topology.Hosts(); h += 3 {
					sw, port := cfg.Topology.HostPort(h)
					cfg.Faults.Events = append(cfg.Faults.Events, faults.Event{
						At: horizon / 3, Link: faults.LinkID{Switch: sw, Port: port},
						Kind: faults.Derate, Scale: 0.2})
				}
				cfg.Faults.Events = append(cfg.Faults.Events,
					faults.Event{At: horizon / 4, Link: switchFailUplink, Kind: faults.PortDown},
					faults.Event{At: 3 * horizon / 4, Link: switchFailUplink, Kind: faults.PortUp})
				return cfg
			},
			check: delegatesRevoked},
		{name: "cac-outage", cfg: func() network.Config {
			// CAC-host outages during delegated churn: one pod's primary
			// dies (standby promotion, lease reconciliation, retargets) and
			// another pod loses both delegates (lease reclaim, root
			// fallback). The failover state machine runs on in-band
			// messages and static fault hooks only, so every promotion,
			// replayed setup, and TTR sample must be shard-invariant.
			cfg := detBase()
			s := ChurnSessions(120 * units.Microsecond)
			s.Delegation = true
			s.LocalFrac = 0.7
			cfg.Sessions = s
			cfg.ProbeInterval = 100 * units.Microsecond
			horizon := cfg.WarmUp + cfg.Measure
			pods := session.PodPlan(cfg.Topology, s.WithDefaults().Manager)
			plan := &faults.Plan{}
			kill := func(at units.Time, host int) {
				sw, port := cfg.Topology.HostPort(host)
				plan.Events = append(plan.Events, faults.Event{
					At: at, Link: faults.LinkID{Switch: sw, Port: port}, Kind: faults.PortDown})
			}
			kill(horizon/3, pods[0].Primary)
			kill(horizon/3, pods[1].Primary)
			kill(horizon/3+50*units.Microsecond, pods[1].Standby)
			cfg.Faults = plan
			return cfg
		}},
		{name: "policy-coflow-default", cfg: func() network.Config {
			// The ring coflow workload under the default policy: σ-pass
			// admission, CAC reservations, frontier-gated submissions and
			// the per-round outcome fold must all land identically at any
			// shard count.
			cfg := detBase()
			cfg.Coflows = &coflow.Config{StartAt: cfg.WarmUp, Rounds: 4, Chunk: 4 * units.Kilobyte}
			return cfg
		}},
		{name: "policy-coflow-edf", cfg: func() network.Config {
			// Same workload under the coflow-deadline policy: admitted
			// rounds carry absolute collective deadlines through the fabric.
			cfg := detBase()
			cfg.Policy = policy.CoflowEDF()
			cfg.Coflows = &coflow.Config{StartAt: cfg.WarmUp, Rounds: 4, Chunk: 4 * units.Kilobyte}
			return cfg
		}},
		// Bounded value-aware injection queues under a best-effort
		// hotspot: every eviction decision (victim choice, counters,
		// conservation terms) must be shard-invariant.
		{name: "policy-value-drop", cfg: valueDropHotspot},
		{name: "policy-value-drop-coflow-traced", traced: true, arm: "PolicyTraced",
			// The same hotspot with a coflow workload, the sampling tracer
			// and the metrics plane: NIC-eviction trace events, the coflow
			// flows' lifecycle records and the qos_policy_* counters must
			// all be shard-invariant.
			cfg: func() network.Config {
				cfg := valueDropHotspot()
				cfg.Coflows = &coflow.Config{StartAt: cfg.WarmUp, Rounds: 4, Chunk: 4 * units.Kilobyte}
				cfg.Metrics = metrics.NewRegistry()
				return cfg
			},
			check: func(res *network.Results, fp fingerprint) error {
				if res.Conservation.EvictedAtNIC == 0 {
					return errors.New("no NIC evictions; the eviction counters are untested")
				}
				if res.Coflows == nil || res.Coflows.Admitted+res.Coflows.Rejected == 0 {
					return errors.New("no coflow verdicts")
				}
				return fp.renders("metrics",
					"qos_policy_evictions_total", "qos_policy_evicted_value_total",
					"qos_policy_coflow_admitted_total", "qos_policy_coflow_rejected_total",
					"qos_policy_coflow_completed_total", "qos_policy_coflow_missed_total")
			}},
		{name: "rogue-unpoliced", cfg: func() network.Config {
			// Odd hosts babble at 4x their reservation with no policer in
			// the way: the excess traffic, the innocent/rogue frame split
			// and the fault trace must be shard-invariant.
			cfg := detBase()
			cfg.Load = 1.0
			horizon := cfg.WarmUp + cfg.Measure
			cfg.Faults = RoguePlan(cfg.Topology.Hosts(), horizon/8, horizon, 4)
			return cfg
		}},
		// The same rogue storm against the full protection plane: NIC
		// policing (every demotion decision and its trace event) plus the
		// regulated-VC occupancy guard's per-input accounting.
		{name: "rogue-policed-guarded", cfg: rogueGuarded},
		{name: "rogue-policed-guarded-traced", twin: "rogue-policed-guarded", traced: true, arm: "ProtectionTraced",
			// The KindPoliced demotion events and the demoted packets'
			// best-effort lifecycle records, with probes sampling alongside.
			cfg: func() network.Config {
				cfg := rogueGuarded()
				cfg.ProbeInterval = 100 * units.Microsecond
				return cfg
			}},
		{name: "forge-policed",
			// Deadline forgery against the policer's rate-envelope test,
			// with session churn granting policed dynamic flows on top and
			// the metrics plane counting the forged demotions.
			cfg: func() network.Config {
				cfg := detBase()
				horizon := cfg.WarmUp + cfg.Measure
				cfg.Faults = ForgePlan(cfg.Topology.Hosts(), horizon/8, horizon, 0.25)
				cfg.Police = true
				cfg.Sessions = ChurnSessions(200 * units.Microsecond)
				cfg.Metrics = metrics.NewRegistry()
				return cfg
			},
			check: func(_ *network.Results, fp fingerprint) error {
				return fp.nonZero("qos_police_forged_total")
			}},
		{name: "gray-drain",
			// A slow-drain link under the gray-failure detector: the
			// detection times, proactive reroutes and session
			// revalidations all derive from build-time replay and must be
			// byte-identical at any shard count, and so must their
			// published counters.
			cfg: func() network.Config {
				cfg := detBase()
				horizon := cfg.WarmUp + cfg.Measure
				ids := transitLinkIDs(cfg.Topology)
				cfg.Faults = GrayPlan(ids, horizon/6, horizon, 0.3)
				cfg.GrayPersistence = horizon / 8
				cfg.Sessions = ChurnSessions(200 * units.Microsecond)
				cfg.Metrics = metrics.NewRegistry()
				return cfg
			},
			check: func(_ *network.Results, fp fingerprint) error {
				return fp.nonZero("qos_gray_detected_total", "qos_gray_rerouted_flows_total",
					"qos_gray_revalidations_total")
			}},
		{name: "gray-switch-failure",
			// The slow-drain links of gray-drain (both directions of leaf
			// 0's cable to spine 4), then an outage of spine 5, the gray
			// detours' spine, after detection: route repair must steer
			// around the gray links and the gray detours around the dead
			// spine, all decided by the one replay of the plan.
			cfg: func() network.Config {
				cfg := detBase()
				horizon := cfg.WarmUp + cfg.Measure
				cfg.Faults = GrayPlan(transitLinkIDs(cfg.Topology), horizon/6, horizon, 0.3)
				cfg.Faults.Events = append(cfg.Faults.Events,
					faults.Event{At: horizon / 2, Link: faults.SwitchID(5), Kind: faults.SwitchDown},
					faults.Event{At: 3 * horizon / 4, Link: faults.SwitchID(5), Kind: faults.SwitchUp})
				cfg.GrayPersistence = horizon / 8
				cfg.Sessions = ChurnSessions(200 * units.Microsecond)
				return cfg
			},
			check: func(res *network.Results, _ fingerprint) error {
				if res.Gray == nil || res.Gray.FlowsRerouted == 0 {
					return fmt.Errorf("no static flow moved off the gray links: %v", res.Gray)
				}
				if res.Availability == nil || res.Availability.FlowsRerouted == 0 {
					return fmt.Errorf("no static flow repaired around the dead spine: %v", res.Availability)
				}
				return nil
			}},
		{name: "chaos-spine-traced", traced: true,
			// Link chaos plus a spine outage under the tracer, with order
			// tracking, reliability, probes, churn and the metrics plane:
			// traced runs must also agree on every drop inside the dead
			// switch and every repair, and the published link-drop,
			// corruption, switch-drop and order-error counters on them.
			cfg: func() network.Config {
				cfg := detBase()
				horizon := cfg.WarmUp + cfg.Measure
				cfg.TrackOrderErrors = true
				cfg.Faults = ChaosPlan(cfg.Seed+7, cfg.Topology, horizon)
				cfg.Faults.Events = append(cfg.Faults.Events,
					faults.Event{At: horizon / 3, Link: faults.SwitchID(5), Kind: faults.SwitchDown},
					faults.Event{At: 2 * horizon / 3, Link: faults.SwitchID(5), Kind: faults.SwitchUp})
				cfg.Reliability = hostif.Reliability{Enabled: true}
				cfg.ProbeInterval = 200 * units.Microsecond
				cfg.Sessions = ChurnSessions(150 * units.Microsecond)
				cfg.Metrics = metrics.NewRegistry()
				return cfg
			},
			check: func(_ *network.Results, fp fingerprint) error {
				return fp.nonZero("qos_link_dropped_total", "qos_link_corrupted_total",
					"qos_switch_dropped_total", "qos_buffer_order_errors_total")
			}},
		{name: "soak-epoch", cfg: func() network.Config {
			// Exactly what the soak harness runs in one epoch — the full
			// fault mix plus churn — pinned here so the seed printed by a
			// failing soak replays byte-identically at any shard count.
			base := detBase()
			return soak.EpochConfig(soak.Options{
				Seed: 5, WarmUp: base.WarmUp, Measure: base.Measure,
			}, 0)
		},
			// Timeouts, NAKs, corrupted and duplicate copies all occur
			// here: the digest covers every recovery-tracker path.
			check: func(res *network.Results, _ fingerprint) error {
				return relNonZero(res, "Timeouts", "Naks", "RxCorrupt", "RxDup", "Retransmitted")
			}},
	}
}

// relNonZero reports an error naming the first of the named
// hostif.RelCounters fields that is zero in res, so a row proves its
// digest covers those recovery paths. Like nonZero it skips the race
// build's shortened windows.
func relNonZero(res *network.Results, names ...string) error {
	if raceEnabled {
		return nil
	}
	c := reflect.ValueOf(res.Reliability)
	for _, name := range names {
		if c.FieldByName(name).Uint() == 0 {
			return fmt.Errorf("reliability counter %s is zero", name)
		}
	}
	return nil
}

// delegatesRevoked reports an error unless the delegates' last
// session-telemetry rows sum to a non-zero revocation count, so a row
// proves its digest covers the delegates' revocation paths. Like
// relNonZero it skips the race build's shortened windows.
func delegatesRevoked(res *network.Results, _ fingerprint) error {
	if raceEnabled {
		return nil
	}
	last := map[int]uint64{} // delegate host -> cumulative revocations
	for _, s := range res.Telemetry.Sessions {
		if s.Pod >= 0 {
			last[s.Host] = s.Revoked
		}
	}
	var sum uint64
	for _, n := range last {
		sum += n
	}
	if sum == 0 {
		return fmt.Errorf("%d delegates revoked nothing", len(last))
	}
	return nil
}

// section is one labelled part of a fingerprint.
type section struct {
	name string
	body []byte
}

// fingerprint is every determinism-guaranteed output of one run, as
// labelled sections in render order, plus the engine event count (which
// sharding changes, so only the sequential run's is pinned).
type fingerprint struct {
	sections []section
	events   uint64
}

// blob renders the fingerprint as one labelled byte blob.
func (fp fingerprint) blob() []byte {
	var buf bytes.Buffer
	for _, s := range fp.sections {
		fmt.Fprintf(&buf, "== %s ==\n%s\n", s.name, s.body)
	}
	return buf.Bytes()
}

// section returns the body of the named section.
func (fp fingerprint) section(name string) ([]byte, error) {
	for _, s := range fp.sections {
		if s.name == name {
			return s.body, nil
		}
	}
	return nil, fmt.Errorf("no section %s", name)
}

// renders reports an error naming the first of want missing from the
// named section.
func (fp fingerprint) renders(name string, want ...string) error {
	body, err := fp.section(name)
	if err != nil {
		return err
	}
	for _, w := range want {
		if !bytes.Contains(body, []byte(w)) {
			return fmt.Errorf("section %s does not name %s", name, w)
		}
	}
	return nil
}

// nonZero reports an error naming the first of names whose published
// counter is zero, so a row proves its digest pins counters it exercises.
// The race build compares no digests and its shortened windows may not
// reach every counter (delegated-churn sheds nothing there), so it
// skips the check.
func (fp fingerprint) nonZero(names ...string) error {
	if raceEnabled {
		return nil
	}
	body, err := fp.section("metrics")
	if err != nil {
		return err
	}
	got := promCounters(body)
	for _, name := range names {
		if got[name] == 0 {
			return fmt.Errorf("published counter %s is zero", name)
		}
	}
	return nil
}

// promCounters sums the samples of a Prometheus text render by metric
// name over their labels.
func promCounters(render []byte) map[string]uint64 {
	out := map[string]uint64{}
	for _, line := range strings.Split(string(render), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ = strings.Cut(name, "{")
		if v, err := strconv.ParseUint(val, 10, 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// countersAgree checks every published counter that counts the same
// thing as a result field against that field.
func countersAgree(render []byte, res *network.Results) error {
	var sess session.Results
	if res.Sessions != nil {
		sess = *res.Sessions
	}
	var cp session.ControlPlane
	if res.ControlPlane != nil {
		cp = *res.ControlPlane
	}
	var gray network.GrayReport
	if res.Gray != nil {
		gray = *res.Gray
	}
	cons := res.Conservation
	got := promCounters(render)
	for _, w := range []struct {
		name string
		want uint64
	}{
		{"qos_switch_xbar_transfers_total", res.XbarTransfers},
		{"qos_switch_link_sends_total", res.LinkSends},
		{"qos_buffer_order_errors_total", res.OrderErrors},
		{"qos_buffer_takeovers_total", res.TakeOvers},
		{"qos_host_generated_total", cons.Generated},
		{"qos_host_injected_total", cons.InjectedCopies},
		{"qos_host_delivered_total", cons.DeliveredUnique},
		{"qos_link_dropped_total", cons.LostOnLink},
		{"qos_switch_dropped_total", cons.DroppedInSwitch},
		{"qos_policy_evictions_total", cons.EvictedAtNIC},
		{"qos_police_demoted_total", cons.PolicedDemotions},
		{"qos_link_corrupted_total", res.CorruptedInFlight},
		{"qos_session_started_total", sess.Started},
		{"qos_session_granted_total", sess.Granted},
		{"qos_session_accepted_total", sess.Accepted},
		{"qos_session_rejected_total", sess.Rejected},
		{"qos_session_released_total", sess.Released},
		{"qos_session_revoked_total", sess.Revoked},
		{"qos_session_local_grants_total", cp.LocalGrants},
		{"qos_session_escalated_total", cp.Escalated},
		{"qos_session_shed_total", cp.Shed},
		{"qos_gray_detected_total", gray.Detections},
		{"qos_gray_rerouted_flows_total", gray.FlowsRerouted},
		{"qos_gray_revalidations_total", gray.Revalidations},
	} {
		if g, ok := got[w.name]; !ok {
			return fmt.Errorf("counter %s is not published", w.name)
		} else if g != w.want {
			return fmt.Errorf("published %s = %d, but the result field counting the same thing is %d", w.name, g, w.want)
		}
	}
	return nil
}

// digest records row's event count and the hash of every section in d.
func (fp fingerprint) digest(row string, d digests) {
	d[row+" events"] = strconv.FormatUint(fp.events, 10)
	for _, s := range fp.sections {
		sum := sha256.Sum256(s.body)
		d[row+" "+s.name] = hex.EncodeToString(sum[:8])
	}
}

// runFingerprint runs cfg at the given shard count (building a fresh
// tracer when requested) and renders every determinism-guaranteed output.
// A run with a metrics registry must also publish the same value as each
// result field that counts the same thing (countersAgree).
func runFingerprint(t *testing.T, cfg network.Config, shards int, traced bool) (fingerprint, *network.Results) {
	t.Helper()
	cfg.Shards = shards
	var tr *trace.Tracer
	if traced {
		var err error
		// The sample cap must not be hit: per-shard tracers enforce it
		// independently, so a capped run loses the equality guarantee.
		tr, err = trace.New(trace.Config{SampleRate: 0.05, Seed: cfg.Seed, MaxEvents: 500_000})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Tracer = tr
	}
	res, err := network.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprint{events: res.SimEvents}
	add := func(name string, write func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("section %s: %v", name, err)
		}
		fp.sections = append(fp.sections, section{name, buf.Bytes()})
	}
	addJSON := func(name string, v any) {
		add(name, func(buf *bytes.Buffer) error { return json.NewEncoder(buf).Encode(v) })
	}
	// The model sections: the simulation's own results.
	addJSON("snapshot", res.Snapshot("det"))
	addJSON("conservation", res.Conservation)
	addJSON("fault-trace", res.FaultTrace)
	addJSON("reliability", res.Reliability)
	addJSON("counters", []uint64{
		res.OrderErrors, res.TakeOvers, res.XbarTransfers, res.LinkSends,
		uint64(res.PendingAtHorizon), res.LostOnLink, res.CorruptedInFlight,
		res.FaultEvents, uint64(res.OutstandingAtStop),
	})
	addJSON("sessions", res.Sessions)
	addJSON("availability", res.Availability)
	addJSON("policy", res.Policy)
	addJSON("coflows", res.Coflows)
	addJSON("police", res.Police)
	addJSON("gray", res.Gray)
	// The observer sections.
	if tr != nil {
		if tr.Dropped() > 0 {
			t.Fatalf("tracer hit its event cap (%d dropped); raise MaxEvents", tr.Dropped())
		}
		if tr.Len() == 0 {
			t.Fatal("traced run recorded no events")
		}
		add("trace-jsonl", func(buf *bytes.Buffer) error { return tr.WriteJSONL(buf) })
	}
	if cfg.ProbeInterval > 0 && (res.Telemetry == nil || len(res.Telemetry.Ports) == 0) {
		t.Fatal("probed run recorded no telemetry")
	}
	if res.Telemetry != nil {
		add("telemetry-ports", func(buf *bytes.Buffer) error { return res.Telemetry.WriteCSV(buf) })
		add("telemetry-sessions", func(buf *bytes.Buffer) error { return res.Telemetry.WriteSessionsCSV(buf) })
	}
	if cfg.Metrics != nil {
		add("metrics", func(buf *bytes.Buffer) error { return cfg.Metrics.WriteDeterministic(buf) })
		body := fp.sections[len(fp.sections)-1].body
		if bytes.Contains(body, []byte("qos_engine_events_total")) {
			t.Fatal("PerEngine instrument qos_engine_events_total leaked into the deterministic render")
		}
		if err := countersAgree(body, res); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
	}
	return fp, res
}

// modelSection reports whether a section holds simulation results rather
// than an observer's output (or the event count, which probes change).
func modelSection(name string) bool {
	switch name {
	case "events", "trace-jsonl", "telemetry-ports", "telemetry-sessions", "metrics":
		return false
	}
	return true
}

// diffLine locates the first differing line between two fingerprints so a
// failure names the section instead of dumping megabytes.
func diffLine(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	section := "?"
	for i := 0; i < len(al) && i < len(bl); i++ {
		if bytes.HasPrefix(al[i], []byte("== ")) {
			section = string(al[i])
		}
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("section %s line %d:\n  seq: %.200s\n  par: %.200s", section, i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ (%d vs %d lines) after section %s", len(al), len(bl), section)
}

// detShardCounts is the sharded side of the cross-check. Under the race
// detector only the 2-shard run is compared (the 4-shard schedule adds
// interleavings, not merge paths, and race runs cost 10-20x); the plain
// build compares both.
func detShardCounts() []int {
	if raceEnabled {
		return []int{2}
	}
	return []int{2, 4}
}

// digestsComparable reports whether this build reproduces the committed
// digests, and why not. The race build shortens the windows, and Go fuses
// x*y+z into one instruction on arm64, ppc64, s390x, riscv64 and loong64
// (never on amd64), so float results may differ there. On amd64,
// math.Exp (under math.Pow) picks an FMA kernel only when the CPU has
// both AVX and FMA; the committed digests come from such a CPU. Where
// /proc/cpuinfo cannot be read, the comparison runs.
func digestsComparable() (bool, string) {
	if raceEnabled {
		return false, "the race build shortens the windows"
	}
	if runtime.GOARCH != "amd64" {
		return false, "digests are recorded on amd64, and " + runtime.GOARCH + " may fuse float multiply-adds"
	}
	if runtime.GOOS == "linux" {
		if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
			if missing := missingFMAFlags(string(info)); len(missing) > 0 {
				return false, "this CPU lacks " + strings.Join(missing, " and ") +
					", so math.Exp skips the FMA kernel the digests were recorded with"
			}
		}
	}
	return true, ""
}

// missingFMAFlags returns which of the CPU flags math.Exp's FMA kernel
// needs (avx, fma) the first flags line of a /proc/cpuinfo text lacks.
// Text without a flags line yields none: the comparison then runs.
func missingFMAFlags(cpuinfo string) []string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(key) != "flags" {
			continue
		}
		have := map[string]bool{}
		for _, f := range strings.Fields(val) {
			have[f] = true
		}
		var missing []string
		for _, f := range []string{"avx", "fma"} {
			if !have[f] {
				missing = append(missing, f)
			}
		}
		return missing
	}
	return nil
}

// TestShardDeterminism is the determinism harness: every row without an
// arm at Shards=2 and Shards=4 against the sequential run, whose section
// digests and event count must match the committed lines.
func TestShardDeterminism(t *testing.T) { runDeterminism(t, "") }

// TestShardDeterminismPolicyTraced is the traced arm of the policy rows:
// value-drop eviction trace events, the coflow flows' lifecycle records
// and the qos_policy_* metrics must also be shard-invariant.
func TestShardDeterminismPolicyTraced(t *testing.T) { runDeterminism(t, "PolicyTraced") }

// TestShardDeterminismProtectionTraced is the traced arm of the
// guarantee-protection rows: the KindPoliced demotion events and the
// demoted packets' best-effort lifecycle records must also be
// shard-invariant, and tracing must leave every model section unchanged.
func TestShardDeterminismProtectionTraced(t *testing.T) { runDeterminism(t, "ProtectionTraced") }

// runDeterminism runs the rows of one arm through the harness. Every
// arm checks its runs against the whole committed file.
func runDeterminism(t *testing.T, arm string) {
	if testing.Short() {
		t.Skip("multi-run cross-check")
	}
	pinned, why := digestsComparable()
	if *update && !pinned {
		t.Fatalf("-update refused: %s", why)
	}
	table := detScenarios()
	var mu sync.Mutex
	ran := digests{}
	// Cleanup runs once every parallel row has finished.
	t.Cleanup(func() {
		if !pinned {
			t.Logf("committed digests not compared: %s", why)
			return
		}
		committed, err := readDigests(digestPath)
		if err != nil && !(*update && errors.Is(err, os.ErrNotExist)) {
			t.Errorf("%v (run with -update to create it)", err)
			return
		}
		if *update {
			if err := writeDigests(digestPath, table, committed.overlay(ran)); err != nil {
				t.Error(err)
				return
			}
			if committed, err = readDigests(digestPath); err != nil {
				t.Error(err)
				return
			}
		}
		errs := compareDigests(table, committed, ran)
		for _, msg := range errs {
			t.Error(msg)
		}
		if len(errs) > 0 {
			t.Logf("if the change is meant to move these results, rerun with -update and name each changed row and the cause in CHANGES.md")
		}
	})
	for _, sc := range table {
		if sc.arm != arm {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			ref, res := runFingerprint(t, sc.cfg(), 1, sc.traced)
			if sc.check != nil {
				if err := sc.check(res, ref); err != nil {
					t.Errorf("sanity check: %v", err)
				}
			}
			mu.Lock()
			ref.digest(sc.name, ran)
			mu.Unlock()
			refBlob := ref.blob()
			for _, shards := range detShardCounts() {
				got, _ := runFingerprint(t, sc.cfg(), shards, sc.traced)
				if gotBlob := got.blob(); !bytes.Equal(refBlob, gotBlob) {
					t.Errorf("shards=%d diverges from sequential: %s", shards, diffLine(refBlob, gotBlob))
				}
			}
		})
	}
}

// digests maps "<row> <section>" to the section's hash, and
// "<row> events" to the row's engine event count.
type digests map[string]string

// rowOf splits a digest key.
func rowOf(key string) (row, section string) {
	row, section, _ = strings.Cut(key, " ")
	return row, section
}

// rows lists the rows d has lines for.
func (d digests) rows() map[string]bool {
	rows := map[string]bool{}
	for k := range d {
		row, _ := rowOf(k)
		rows[row] = true
	}
	return rows
}

// overlay returns d with every row of ran replaced by ran's lines.
func (d digests) overlay(ran digests) digests {
	out, replaced := digests{}, ran.rows()
	for k, v := range d {
		if row, _ := rowOf(k); !replaced[row] {
			out[k] = v
		}
	}
	for k, v := range ran {
		out[k] = v
	}
	return out
}

// sortedKeys returns d's keys in order, so messages and files are stable.
func (d digests) sortedKeys() []string {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compareDigests checks the digests computed this run (ran) against the
// committed ones, and every twin relation with a side in this run over
// the lines it would commit. Each message names the row and the section.
func compareDigests(table []detScenario, committed, ran digests) []string {
	var errs []string
	inTable, ranRows := map[string]bool{}, ran.rows()
	for _, sc := range table {
		inTable[sc.name] = true
	}
	for _, k := range committed.sortedKeys() {
		row, _ := rowOf(k)
		if !inTable[row] {
			errs = append(errs, fmt.Sprintf("%s: committed line has no row in the table", k))
		} else if _, ok := ran[k]; ranRows[row] && !ok {
			errs = append(errs, fmt.Sprintf("%s: committed line, but the run rendered no such section", k))
		}
	}
	for _, k := range ran.sortedKeys() {
		if w, ok := committed[k]; !ok {
			errs = append(errs, fmt.Sprintf("%s: no committed line (run got %s)", k, ran[k]))
		} else if w != ran[k] {
			errs = append(errs, fmt.Sprintf("%s: got %s, committed %s", k, ran[k], w))
		}
	}
	lines := committed.overlay(ran)
	for _, sc := range table {
		if sc.twin == "" || !ranRows[sc.name] && !ranRows[sc.twin] {
			continue
		}
		sections := digests{}
		for k := range lines {
			if row, s := rowOf(k); (row == sc.name || row == sc.twin) && modelSection(s) {
				sections[s] = ""
			}
		}
		for _, s := range sections.sortedKeys() {
			if obs, bare := lines[sc.name+" "+s], lines[sc.twin+" "+s]; obs != bare {
				errs = append(errs, fmt.Sprintf("%s %s: hashes %q, its bare twin %s hashes %q",
					sc.name, s, obs, sc.twin, bare))
			}
		}
	}
	return errs
}

// readDigests parses the committed digest file.
func readDigests(path string) (digests, error) {
	d := digests{}
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	for n, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("%s:%d: want \"<row> <section> <value>\", got %q", path, n+1, line)
		}
		d[f[0]+" "+f[1]] = f[2]
	}
	return d, nil
}

// writeDigests rewrites the digest file in sorted order, keeping only
// rows the table still has.
func writeDigests(path string, table []detScenario, d digests) error {
	inTable := map[string]bool{}
	for _, sc := range table {
		inTable[sc.name] = true
	}
	var buf bytes.Buffer
	buf.WriteString(`# Section digests of every determinism-table row's sequential run:
# "<row> <section> <first 8 bytes of sha256, hex>", and "<row> events <n>"
# for the engine event count. Regenerate with
#   go test ./internal/experiments -run ShardDeterminism -update
# and name each changed row and the cause in CHANGES.md.
`)
	for _, k := range d.sortedKeys() {
		if row, _ := rowOf(k); inTable[row] {
			fmt.Fprintf(&buf, "%s %s\n", k, d[k])
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// TestShardDeterminismDigests pins the digest comparison's failure paths
// on synthetic input: each must name the row and the section.
func TestShardDeterminismDigests(t *testing.T) {
	table := []detScenario{{name: "bare"}, {name: "observed", twin: "bare"}}
	good := func() digests {
		return digests{
			"bare events": "100", "bare snapshot": "aa", "bare sessions": "bb",
			"observed events": "120", "observed snapshot": "aa", "observed sessions": "bb",
			"observed metrics": "cc",
		}
	}
	drop := func(d digests, row string) {
		for k := range d {
			if r, _ := rowOf(k); r == row {
				delete(d, k)
			}
		}
	}
	cases := []struct {
		name   string
		mutate func(committed, ran digests)
		want   string // "" for a clean comparison
	}{
		{"identical", func(c, r digests) {}, ""},
		{"changed hash", func(c, r digests) { c["bare sessions"] = "ff" },
			"bare sessions: got bb, committed ff"},
		{"changed event count", func(c, r digests) { r["observed events"] = "121" },
			"observed events: got 121, committed 120"},
		{"row with no lines", func(c, r digests) { drop(c, "observed") },
			"observed metrics: no committed line"},
		{"line with no row", func(c, r digests) { c["renamed snapshot"] = "aa" },
			"renamed snapshot: committed line has no row"},
		{"section the run lacks", func(c, r digests) { c["bare gray"] = "dd" },
			"bare gray: committed line, but the run rendered no such section"},
		{"twin mismatch", func(c, r digests) { c["observed snapshot"], r["observed snapshot"] = "ab", "ab" },
			`observed snapshot: hashes "ab", its bare twin bare hashes "aa"`},
		{"twin mismatch on lines only", func(c, r digests) { drop(r, "bare"); c["bare snapshot"] = "ee" },
			`observed snapshot: hashes "aa", its bare twin bare hashes "ee"`},
		{"twin relation outside the run", func(c, r digests) {
			drop(r, "bare")
			drop(r, "observed")
			c["observed snapshot"] = "ab"
		}, ""},
	}
	for _, tc := range cases {
		committed, ran := good(), good()
		tc.mutate(committed, ran)
		errs := compareDigests(table, committed, ran)
		if tc.want == "" {
			if len(errs) != 0 {
				t.Errorf("%s: unexpected errors %q", tc.name, errs)
			}
			continue
		}
		found := false
		for _, e := range errs {
			found = found || strings.Contains(e, tc.want)
		}
		if !found {
			t.Errorf("%s: errors %q, want one containing %q", tc.name, errs, tc.want)
		}
	}
}

// TestMissingFMAFlags pins the cpuinfo parsing behind the digest gate on
// synthetic text: only the exact avx and fma tokens of the flags line
// count.
func TestMissingFMAFlags(t *testing.T) {
	const head = "processor\t: 0\nvendor_id\t: GenuineIntel\n"
	cases := []struct {
		name, info string
		want       string
	}{
		{"both", head + "flags\t\t: fpu sse2 avx fma avx2\n", ""},
		{"no fma", head + "flags\t\t: fpu sse2 avx avx2 fma4\n", "fma"},
		{"no avx", head + "flags\t\t: fpu sse2 fma avx2 avx512f\n", "avx"},
		{"neither", head + "flags\t\t: fpu sse2\n", "avx fma"},
		{"first flags line wins", head + "flags\t\t: avx fma\nflags\t\t: sse2\n", ""},
		{"vmx flags ignored", head + "vmx flags\t: ept\nflags\t\t: avx\n", "fma"},
		{"no flags line", head, ""},
		{"empty", "", ""},
	}
	for _, tc := range cases {
		if got := strings.Join(missingFMAFlags(tc.info), " "); got != tc.want {
			t.Errorf("%s: missing %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestPartitionPlanner pins the planner's invariants: round-robin switch
// assignment, hosts co-located with their leaf, and clamping.
func TestPartitionPlanner(t *testing.T) {
	topo := network.SmallConfig().Topology
	swShard, hostShard, eff := network.Partition(topo, 4)
	if eff != 4 {
		t.Fatalf("effective shards = %d, want 4", eff)
	}
	for sw, s := range swShard {
		if s != sw%4 {
			t.Fatalf("switch %d on shard %d, want %d", sw, s, sw%4)
		}
	}
	for sw := 0; sw < topo.Switches(); sw++ {
		for p := 0; p < topo.Radix(sw); p++ {
			if peer := topo.Peer(sw, p); peer.ID >= 0 && peer.IsHost {
				if hostShard[peer.ID] != swShard[sw] {
					t.Fatalf("host %d on shard %d, leaf switch %d on shard %d",
						peer.ID, hostShard[peer.ID], sw, swShard[sw])
				}
			}
		}
	}
	if _, _, eff := network.Partition(topo, 1000); eff != topo.Switches() {
		t.Fatalf("shard count not clamped to switch count: %d", eff)
	}
	if _, _, eff := network.Partition(topo, 0); eff != 1 {
		t.Fatalf("shard count not clamped up to 1: %d", eff)
	}
}

// TestFaultPlanRejectedWithoutLookahead pins the config rule that sharded
// runs need at least one cycle of lookahead.
func TestFaultPlanRejectedWithoutLookahead(t *testing.T) {
	cfg := detBase()
	cfg.Shards = 2
	cfg.PropDelay = 0
	if _, err := network.New(cfg); err == nil {
		t.Fatal("Shards > 1 with zero PropDelay must be rejected")
	}
}
