// Package network assembles complete simulations: it builds the topology,
// switches, host NICs, links and traffic sources from a Config, runs the
// discrete-event engine through a warm-up and a measurement window, and
// returns the collected per-class metrics.
//
// This is the public entry point of the library: examples, command-line
// tools and the benchmark harness all call network.Run.
package network

import (
	"fmt"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/coflow"
	"deadlineqos/internal/faults"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/metrics"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/policy"
	"deadlineqos/internal/session"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/traffic"
	"deadlineqos/internal/units"
)

// Config describes one simulation run. The zero value is not runnable; use
// DefaultConfig (the paper's §4.1 parameters) and override what the
// experiment varies.
type Config struct {
	// Topology of the network. DefaultConfig uses the paper's 128-endpoint
	// folded perfect-shuffle MIN built from 16-port switches.
	Topology topology.Topology
	// Arch selects the switch architecture under test.
	Arch arch.Arch

	// LinkBW is the link bandwidth in bytes per cycle (1.0 = 8 Gb/s).
	LinkBW units.Bandwidth
	// PropDelay is the per-link propagation delay.
	PropDelay units.Time
	// BufPerVC is the switch buffer capacity per (port, VC).
	BufPerVC units.Size
	// MTU is the maximum packet wire size, header included.
	MTU units.Size
	// XbarBW is the per-port crossbar bandwidth (0 = link rate).
	XbarBW units.Bandwidth

	// Seed drives every random stream of the run.
	Seed uint64
	// Load is the total offered load per host as a fraction of its link.
	Load float64
	// ClassShare splits Load across the four classes (Table 1: 25% each).
	ClassShare [packet.NumClasses]float64

	// WarmUp and Measure delimit the measurement window.
	WarmUp, Measure units.Time

	// EligibleLead is deadline − eligible time (20 µs in §3.1); zero
	// disables eligible-time shaping.
	EligibleLead units.Time
	// VideoTarget is the desired per-frame latency (10 ms in §3.1).
	VideoTarget units.Time
	// VideoPeriod is the frame cadence (40 ms).
	VideoPeriod units.Time
	// GoP is the MPEG frame-size model.
	GoP traffic.GoP
	// VideoTraceFrames, when non-empty, makes every video stream replay
	// this recorded frame-size trace (see traffic.LoadFrameTrace) instead
	// of sampling the GoP model — the paper transmits actual MPEG-4
	// traces.
	VideoTraceFrames []units.Size

	// ControlDests / BEDests set how many destinations each host spreads
	// its control and best-effort flows over.
	ControlDests, BEDests int

	// BEWeight and BGWeight scale the deadline-bandwidth of the two
	// best-effort classes' aggregated flows: the knob §5 uses to
	// differentiate classes within the best-effort VC (Figure 4).
	BEWeight, BGWeight float64

	// TrackOrderErrors enables the order-error oracle in all buffers.
	TrackOrderErrors bool
	// ClockSkewMax draws each node's clock skew uniformly from
	// [-ClockSkewMax, +ClockSkewMax] (0 = perfectly synchronised).
	ClockSkewMax units.Time

	// DegradedLinks derates individual switch output links: the data
	// plane runs them at Scale x LinkBW and the admission controller
	// routes regulated flows around them. Models failing cables or
	// operator-imposed caps. For faults that appear mid-run (flaps,
	// time-varying derating, bit errors) use Faults instead.
	DegradedLinks []DegradedLink

	// Faults, when non-nil, is the deterministic fault plan injected
	// during the run: timed link flaps, time-varying bandwidth derating,
	// and per-link bit-error rates (see internal/faults). Identical seeds
	// and plans replay identical fault traces. Unlike DegradedLinks,
	// admission control does NOT route around planned faults — they are
	// unplanned from the fabric manager's point of view.
	Faults *faults.Plan

	// Police arms the guarantee-protection plane's ingress policer on
	// every host NIC: each admitted flow is replayed through a dual token
	// bucket (sustained rate = its reserved BWavg, burst tolerance
	// PoliceBurst) and non-conformant packets — rate excess or forged
	// deadlines — are demoted to the best-effort VC before injection.
	// Behavioural fault windows (RogueFlow, DeadlineForge) misbehave
	// identically with or without Police; the flag only toggles
	// enforcement, so policed/unpoliced runs offer the same traffic.
	Police bool
	// PoliceBurst is the per-flow burst tolerance in bytes. Zero defaults
	// to 256 KB: enough headroom for the default MPEG GoP's largest
	// I-frames (120 KB plus worst-case envelope residue), so policing an
	// innocent run demotes nothing. Experiments with denser, smaller-frame
	// workloads set a tighter burst for faster rogue detection.
	PoliceBurst units.Size

	// GuardBytes arms the regulated-VC occupancy guard in every switch
	// output arbiter: a babbling input whose served regulated bytes lead
	// the least-served contending input by more than GuardBytes is
	// withheld from regulated arbitration until the others catch up, so
	// one rogue NIC cannot monopolise an output's regulated VC. Zero
	// disables the guard (the seed behaviour).
	GuardBytes units.Size

	// GrayPersistence, when positive, arms the gray-failure detector: a
	// fault-plan derate to 0.6 of nominal or below that still holds
	// GrayPersistence plus the 1 µs management delay after it began marks
	// its link gray, and the plane reacts before the SLO trips: static
	// regulated flows re-route around the gray link (RepairPath) and
	// session reservations crossing it revalidate through the CAC. Zero
	// turns the detector off.
	GrayPersistence units.Time

	// Policy selects the scheduling policy plugged into every host NIC
	// and switch arbiter (see internal/policy). Nil selects
	// policy.Default, the paper's EDF-with-take-over discipline — a run
	// with a nil Policy is byte-identical to one predating the policy
	// subsystem. Policies must satisfy the contract in the policy package
	// doc (deterministic, shard-independent, no clocks or randomness).
	Policy policy.Policy

	// Coflows, when non-nil, runs the ring-collective coflow workload
	// (internal/coflow) on top of the configured traffic: a σ-order
	// admission pass splits the rounds into reserved and best-effort
	// traffic, and — under a coflow-aware Policy — admitted rounds carry
	// the round's collective deadline on every packet. Zero fields take
	// their defaults.
	Coflows *coflow.Config

	// Sessions, when non-nil, enables the dynamic session subsystem
	// (internal/session): every host generates Poisson (optionally
	// flash-crowd) session arrivals, negotiates admission with the
	// centralised CAC at Sessions.Manager over in-band Control-class
	// messages, retries or downgrades on reject, and tears down on
	// departure. Fault-plan derates revoke affected reservations at
	// runtime. Zero fields of the pointed-to Config take their defaults.
	Sessions *session.Config

	// Reliability configures the hosts' end-to-end retransmission layer
	// (CRC drop at the receiver, seq-gap NAKs, timeout/backoff
	// retransmission, demotion to best-effort). Enable it whenever
	// Faults can lose or corrupt packets; without it, corrupted and
	// flapped packets are dropped-and-accounted but never recovered.
	Reliability hostif.Reliability

	// CheckInvariants enables the run-time delivery oracle: every unique
	// (flow, seq) must be delivered at most once. Costs one map entry
	// per delivered packet; tests, fuzzing and the chaos tools turn it
	// on. The cheap counter-based conservation balance in
	// Results.Conservation is always collected.
	CheckInvariants bool

	// Tracer, when non-nil, records the full lifecycle of a sampled
	// subset of packets (see internal/trace): NIC queueing, eligible-time
	// holds, per-hop VOQ/output-buffer transits, take-overs, order
	// errors, drops and delivery. Sampling is decided at generation by a
	// deterministic hash, so the same seed and rate trace the same
	// packets. Nil disables tracing entirely; the fast path then costs a
	// single nil check per event site. The tracer is the run's only
	// per-packet observer: at SampleRate 1 it sees every generation,
	// injection and delivery at any shard count, and a FlightRecorder on
	// its Config (with DiscardEvents to keep no log) arms the flight ring.
	Tracer *trace.Tracer

	// Metrics, when non-nil, turns on the always-on metrics plane (see
	// internal/metrics): at each probe tick and at the end of the run,
	// every shard stores its components' running totals into its own
	// lock-free instrument set and publishes an immutable snapshot for
	// the live scrape server. Instrument values are deterministic at any
	// shard count (PerEngine instruments excepted). Nil disables the
	// plane entirely; the host hooks then pay one nil check for the few
	// facts recorded at event time.
	Metrics *metrics.Registry

	// MissBurstCount and MissBurstWindow define the deadline-miss-burst
	// SLO that trips the Tracer's flight recorder: MissBurstCount missed
	// deliveries on one shard within MissBurstWindow of simulated time.
	// Zero count disables the SLO; zero window with a positive count
	// defaults to 1 ms.
	MissBurstCount  int
	MissBurstWindow units.Time

	// ProbeInterval, when positive, samples every switch port (queue
	// occupancy, credit balance, take-over and order-error rates, link
	// utilization) and the engine's progress on this period into
	// Results.Telemetry. Probes are read-only and do not perturb the
	// simulation. Zero disables probing.
	ProbeInterval units.Time

	// HotspotFraction, when positive, skews the best-effort workload so
	// that roughly this fraction of every host's best-effort bursts heads
	// to HotspotHost — the classic hotspot stress pattern. Regulated
	// traffic is unaffected by construction; the experiment is whether
	// the architecture keeps it unaffected in the network too.
	HotspotFraction float64
	// HotspotHost is the hotspot destination (used when HotspotFraction > 0).
	HotspotHost int

	// Shards splits the simulation across this many engines, run on their
	// own goroutines and synchronised conservatively on the link
	// propagation latency (see internal/parsim). Switches are dealt
	// round-robin across shards and every host lives with its leaf switch.
	// The results — statistics, traces, conservation accounting — are
	// byte-identical at every shard count; only wall-clock time changes.
	// Zero or one runs the classic single-engine simulation.
	Shards int

	// VCArbitrationTable overrides the Traditional architecture's
	// weighted table (nil = 3 regulated slots : 1 best-effort slot).
	// Entry counts define the bandwidth weights, as in the PCI AS and
	// InfiniBand arbitration tables. Deadline-aware architectures ignore
	// it.
	VCArbitrationTable []packet.VC
}

// DegradedLink identifies one derated switch output link.
type DegradedLink struct {
	Switch, Port int
	Scale        float64 // (0, 1]: fraction of nominal bandwidth remaining
}

// DefaultConfig returns the paper's evaluation parameters (§4.1, §4.2) on
// the 128-endpoint MIN.
func DefaultConfig() Config {
	return Config{
		Topology:     topology.PaperMIN(),
		Arch:         arch.Advanced2VC,
		LinkBW:       units.GbpsToBandwidth(8),
		PropDelay:    20 * units.Nanosecond,
		BufPerVC:     8 * units.Kilobyte,
		MTU:          2 * units.Kilobyte,
		Seed:         1,
		Load:         1.0,
		ClassShare:   [packet.NumClasses]float64{0.25, 0.25, 0.25, 0.25},
		WarmUp:       5 * units.Millisecond,
		Measure:      50 * units.Millisecond,
		EligibleLead: 20 * units.Microsecond,
		VideoTarget:  10 * units.Millisecond,
		VideoPeriod:  40 * units.Millisecond,
		GoP:          traffic.DefaultGoP(),
		ControlDests: 8,
		BEDests:      8,
		BEWeight:     2.0,
		BGWeight:     0.5,
	}
}

// SmallConfig returns a scaled-down configuration (16 endpoints on a
// single-stage... rather a 2-level folded Clos of 4-port switches) for
// fast unit tests and the Go benchmark harness, keeping all qualitative
// behaviours of the full network.
func SmallConfig() Config {
	cfg := DefaultConfig()
	clos, err := topology.NewFoldedClos(4, 4, 4) // 16 hosts, 8-port switches
	if err != nil {
		panic(err)
	}
	cfg.Topology = clos
	cfg.WarmUp = 2 * units.Millisecond
	cfg.Measure = 20 * units.Millisecond
	cfg.ControlDests = 4
	cfg.BEDests = 4
	return cfg
}

// validate fills defaults and rejects inconsistent configurations.
func (cfg *Config) validate() error {
	if cfg.Topology == nil {
		return fmt.Errorf("network: no topology configured")
	}
	if cfg.Topology.Hosts() < 2 {
		return fmt.Errorf("network: topology needs at least 2 hosts")
	}
	if cfg.LinkBW <= 0 {
		return fmt.Errorf("network: link bandwidth %v must be positive", cfg.LinkBW)
	}
	if cfg.Load < 0 || cfg.Load > 1 {
		return fmt.Errorf("network: load %v out of [0, 1]", cfg.Load)
	}
	var share float64
	for _, s := range cfg.ClassShare {
		if s < 0 {
			return fmt.Errorf("network: negative class share")
		}
		share += s
	}
	if share > 1+1e-9 {
		return fmt.Errorf("network: class shares sum to %v > 1", share)
	}
	if cfg.MTU <= packet.HeaderSize {
		return fmt.Errorf("network: MTU %v not larger than header %v", cfg.MTU, packet.HeaderSize)
	}
	if cfg.BufPerVC < cfg.MTU {
		return fmt.Errorf("network: buffer per VC %v smaller than MTU %v", cfg.BufPerVC, cfg.MTU)
	}
	if cfg.Measure <= 0 {
		return fmt.Errorf("network: measurement window %v must be positive", cfg.Measure)
	}
	if cfg.ControlDests <= 0 || cfg.BEDests <= 0 {
		return fmt.Errorf("network: destination fan-outs must be positive")
	}
	if cfg.ControlDests >= cfg.Topology.Hosts() || cfg.BEDests >= cfg.Topology.Hosts() {
		return fmt.Errorf("network: destination fan-out exceeds host count")
	}
	if cfg.BEWeight <= 0 || cfg.BGWeight <= 0 {
		return fmt.Errorf("network: best-effort weights must be positive")
	}
	if cfg.VideoPeriod <= 0 || cfg.VideoTarget <= 0 {
		return fmt.Errorf("network: video period and target must be positive")
	}
	if cfg.ProbeInterval < 0 {
		return fmt.Errorf("network: probe interval %v is negative", cfg.ProbeInterval)
	}
	if cfg.HotspotFraction < 0 || cfg.HotspotFraction >= 1 {
		return fmt.Errorf("network: hotspot fraction %v out of [0, 1)", cfg.HotspotFraction)
	}
	if cfg.HotspotFraction > 0 && (cfg.HotspotHost < 0 || cfg.HotspotHost >= cfg.Topology.Hosts()) {
		return fmt.Errorf("network: hotspot host %d not in topology", cfg.HotspotHost)
	}
	seen := make(map[[2]int]struct{}, len(cfg.DegradedLinks))
	for _, d := range cfg.DegradedLinks {
		if d.Scale <= 0 || d.Scale > 1 {
			return fmt.Errorf("network: degraded link scale %v out of (0,1]", d.Scale)
		}
		if d.Switch < 0 || d.Switch >= cfg.Topology.Switches() ||
			d.Port < 0 || d.Port >= cfg.Topology.Radix(d.Switch) {
			return fmt.Errorf("network: degraded link (%d,%d) not in topology", d.Switch, d.Port)
		}
		key := [2]int{d.Switch, d.Port}
		if _, dup := seen[key]; dup {
			return fmt.Errorf("network: degraded link (%d,%d) listed twice", d.Switch, d.Port)
		}
		seen[key] = struct{}{}
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(cfg.Topology.Switches(), cfg.Topology.Hosts(), cfg.Topology.Radix); err != nil {
			return fmt.Errorf("network: %w", err)
		}
	}
	if cfg.PoliceBurst < 0 {
		return fmt.Errorf("network: negative police burst %v", cfg.PoliceBurst)
	}
	if cfg.Police && cfg.PoliceBurst == 0 {
		cfg.PoliceBurst = 256 * units.Kilobyte
	}
	if cfg.GuardBytes < 0 {
		return fmt.Errorf("network: negative guard bytes %v", cfg.GuardBytes)
	}
	if cfg.GrayPersistence < 0 {
		return fmt.Errorf("network: negative gray persistence %v", cfg.GrayPersistence)
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("network: shard count %d is negative", cfg.Shards)
	}
	if cfg.Shards > 1 {
		// Cross-shard effects ride on the link propagation (and, with
		// reliability, the ack) delay; the conservative synchroniser needs
		// at least one cycle of it as lookahead.
		if cfg.PropDelay < 1 {
			return fmt.Errorf("network: Shards > 1 needs a positive PropDelay for lookahead")
		}
		if cfg.Reliability.Enabled && cfg.Reliability.WithDefaults().AckDelay < 1 {
			return fmt.Errorf("network: Shards > 1 needs a positive reliability AckDelay for lookahead")
		}
	}
	if cfg.MissBurstCount < 0 {
		return fmt.Errorf("network: miss-burst count %d is negative", cfg.MissBurstCount)
	}
	if cfg.MissBurstWindow < 0 {
		return fmt.Errorf("network: miss-burst window %v is negative", cfg.MissBurstWindow)
	}
	if cfg.MissBurstCount > 0 && cfg.MissBurstWindow == 0 {
		cfg.MissBurstWindow = units.Millisecond
	}
	if err := cfg.Reliability.Validate(); err != nil {
		return fmt.Errorf("network: %w", err)
	}
	if cfg.Coflows != nil {
		ccfg := cfg.Coflows.WithDefaults(cfg.Topology.Hosts())
		if err := ccfg.Validate(cfg.Topology.Hosts()); err != nil {
			return fmt.Errorf("network: %w", err)
		}
	}
	if cfg.Sessions != nil {
		scfg := cfg.Sessions.WithDefaults()
		if err := scfg.Validate(cfg.Topology.Hosts()); err != nil {
			return fmt.Errorf("network: %w", err)
		}
		if scfg.SigMsgSize > cfg.MTU-packet.HeaderSize {
			return fmt.Errorf("network: signalling message %v does not fit one MTU %v packet",
				scfg.SigMsgSize, cfg.MTU)
		}
	}
	return nil
}
