// Package soak drives the simulator through randomized fault-and-churn
// epochs and audits hard invariants after each one.
//
// Each epoch is an independent network build-and-run whose every random
// choice derives from (master seed, epoch index): the fault plan mixes
// switch outages, port cuts, link flaps, derates and bit errors from
// faults.RandomPlan, while a dynamic session workload churns reservations
// through the CAC on top of the static traffic matrix. After the run the
// harness checks the packet-conservation books, the structural invariants
// (switch buffer pools, link credit bounds, admission ledger), and basic
// deadline-statistics sanity. A violation aborts the soak with the epoch's
// seed and an exact replay command, and because epochs are pure functions
// of their seed — at any shard count — the replay is byte-identical.
package soak

import (
	"fmt"
	"os"

	"deadlineqos/internal/coflow"
	"deadlineqos/internal/faults"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/metrics"
	"deadlineqos/internal/network"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/policy"
	"deadlineqos/internal/session"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
)

// Options configures a soak run. Zero values select the defaults noted on
// each field.
type Options struct {
	// Seed is the master seed; epoch e runs with EpochSeed(Seed, e).
	Seed uint64
	// Epochs is the number of epochs to run (default 4).
	Epochs int
	// FirstEpoch offsets the epoch index (for replaying a single failed
	// epoch out of a longer schedule without re-running its predecessors).
	FirstEpoch int
	// Shards is the simulation shard count (default 1).
	Shards int
	// Load is the offered load (default 0.8).
	Load float64
	// WarmUp and Measure set each epoch's windows (defaults 1 ms / 8 ms).
	WarmUp, Measure units.Time
	// SwitchFaults, Flaps and Derates size each epoch's fault plan
	// (defaults 2 / 3 / 2).
	SwitchFaults, Flaps, Derates int
	// Policy selects the scheduling policy by name (see policy.Names;
	// empty = default). Part of the replay contract: the failure recipe
	// reprints it.
	Policy string
	// Coflows attaches the ring coflow workload (σ-order admission, 4
	// rounds of 4 KB chunks starting at the end of warm-up) to every
	// epoch, on top of the static mix, churn and faults.
	Coflows bool
	// Rogues and Forges schedule that many behavioural misbehaviour
	// windows per epoch (RogueFlow / DeadlineForge on random hosts, with
	// the faults package's default factor and scale). Police arms the
	// per-flow NIC ingress policer so the soak exercises the
	// guarantee-protection plane under the same random storms. All three
	// are part of the replay contract: the failure recipe reprints them.
	Rogues, Forges int
	Police         bool
	// Log, when non-nil, receives one progress line per epoch.
	Log func(format string, args ...any)

	// Metrics, when non-nil, threads the live metrics plane through every
	// epoch's network. The registry is rotated between epochs, so
	// counters and histograms accumulate across the whole soak while each
	// epoch records into fresh per-shard sets — a live scrape (see
	// metrics.StartServer) always reflects the soak so far plus the epoch
	// in flight. Epochs also publish on the telemetry probe cadence;
	// ProbeInterval supplies it (default 100 µs with metrics on).
	Metrics       *metrics.Registry
	ProbeInterval units.Time

	// FlightPath, when non-empty, arms the flight recorder on every epoch
	// and dumps the event window to this file when an epoch trips — an
	// audit/conservation failure or the deadline-miss-burst SLO below.
	// FlightCap sizes the per-shard ring (default trace.DefaultFlightCap).
	FlightPath string
	FlightCap  int

	// MissBurstCount / MissBurstWindow forward the deadline-miss-burst
	// SLO to every epoch (see network.Config).
	MissBurstCount  int
	MissBurstWindow units.Time

	// InjectFailure makes the first epoch fail its post-run audit with a
	// synthetic violation: the CI smoke test uses it to assert the whole
	// failure path — trip, flight dump, replay recipe — end to end.
	InjectFailure bool
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Epochs <= 0 {
		o.Epochs = 4
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.Load <= 0 {
		o.Load = 0.8
	}
	if o.WarmUp <= 0 {
		o.WarmUp = units.Millisecond
	}
	if o.Measure <= 0 {
		o.Measure = 8 * units.Millisecond
	}
	if o.SwitchFaults <= 0 {
		o.SwitchFaults = 2
	}
	if o.Flaps <= 0 {
		o.Flaps = 3
	}
	if o.Derates <= 0 {
		o.Derates = 2
	}
	return o
}

// EpochSeed derives the epoch's seed from the master seed with a
// splitmix64 finalizer, so neighbouring epochs share no stream structure.
func EpochSeed(master uint64, epoch int) uint64 {
	z := master + 0x9e3779b97f4a7c15*uint64(epoch+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// EpochConfig builds the complete network configuration for one epoch: a
// 16-host folded Clos under the advanced 2-VC architecture with the
// reliability layer, runtime invariant checks, session churn, and a
// seed-derived fault plan. Exported so the determinism cross-checks can
// replay exactly what the soak loop runs.
func EpochConfig(opt Options, epoch int) network.Config {
	opt = opt.withDefaults()
	seed := EpochSeed(opt.Seed, epoch)

	cfg := network.SmallConfig()
	cfg.WarmUp = opt.WarmUp
	cfg.Measure = opt.Measure
	cfg.Load = opt.Load
	cfg.Seed = seed
	cfg.Shards = opt.Shards
	cfg.Reliability = hostif.Reliability{Enabled: true}
	cfg.CheckInvariants = true
	cfg.Sessions = &session.Config{
		InterArrival: 300 * units.Microsecond,
		HoldMean:     1500 * units.Microsecond,
	}
	// Odd epochs run the delegated control plane so the soak exercises the
	// lease/failover protocol under the same random fault storms as the
	// centralised CAC: switch outages that land on a delegate host force
	// promotions and reclaims, and the post-epoch audit checks every
	// delegate ledger plus the client liveness watchdog.
	if epoch%2 == 1 {
		cfg.Sessions.Delegation = true
		cfg.Sessions.LocalFrac = 0.5
		cfg.Sessions.CtlService = 200 * units.Nanosecond
		cfg.Sessions.CtlQueueCap = 32
	}

	if pol, err := policy.Parse(opt.Policy); err == nil {
		cfg.Policy = pol
	} else {
		// Run rejects unknown names before any epoch builds; reaching this
		// branch means the caller skipped that validation.
		panic(fmt.Sprintf("soak: bad policy %q: %v", opt.Policy, err))
	}
	if opt.Coflows {
		cfg.Coflows = &coflow.Config{StartAt: cfg.WarmUp, Rounds: 4, Chunk: 4 * units.Kilobyte}
	}
	cfg.Police = opt.Police

	horizon := cfg.WarmUp + cfg.Measure
	plan := faults.RandomPlan(seed, soakLinkIDs(cfg.Topology), horizon, faults.RandomConfig{
		Flaps:    opt.Flaps,
		MinDown:  horizon / 200,
		MaxDown:  horizon / 25,
		Derates:  opt.Derates,
		MinScale: 0.3,

		Switches:     cfg.Topology.Switches(),
		SwitchFaults: opt.SwitchFaults,
		SwitchMTTF:   horizon / 2,
		SwitchMTTR:   horizon / 20,

		Hosts:  cfg.Topology.Hosts(),
		Rogues: opt.Rogues,
		Forges: opt.Forges,
	})
	plan.DefaultBER = 1e-7
	cfg.Faults = plan
	return cfg
}

// soakLinkIDs enumerates every wired switch output link of a topology.
func soakLinkIDs(topo topology.Topology) []faults.LinkID {
	var ids []faults.LinkID
	for sw := 0; sw < topo.Switches(); sw++ {
		for p := 0; p < topo.Radix(sw); p++ {
			if topo.Peer(sw, p).ID != -1 {
				ids = append(ids, faults.LinkID{Switch: sw, Port: p})
			}
		}
	}
	return ids
}

// EpochReport is one audited epoch's outcome.
type EpochReport struct {
	Epoch   int
	Seed    uint64
	Results *network.Results
}

// Report summarises a completed soak run.
type Report struct {
	Options Options
	Epochs  []EpochReport
}

// Run executes the soak schedule. The first invariant violation aborts the
// run with an error naming the epoch, its seed and an exact single-epoch
// replay command; the partial report accompanies the error.
func Run(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	logf := opt.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &Report{Options: opt}
	if _, err := policy.Parse(opt.Policy); err != nil {
		return rep, fmt.Errorf("soak: %w", err)
	}
	for i := 0; i < opt.Epochs; i++ {
		epoch := opt.FirstEpoch + i
		cfg := EpochConfig(opt, epoch)
		// The observability plane rides on the epoch config without
		// entering EpochSeed's replay contract: metrics, probes and the
		// flight recorder never perturb the simulation, so a bare replay
		// of EpochConfig reproduces the epoch byte-identically.
		var fr *trace.FlightRecorder
		if opt.FlightPath != "" {
			fr = trace.NewFlightRecorder(opt.FlightCap)
			tr, err := trace.New(trace.Config{SampleRate: 1, DiscardEvents: true, Flight: fr})
			if err != nil {
				return rep, epochErr(opt, epoch, cfg.Seed, err)
			}
			cfg.Tracer = tr
			cfg.MissBurstCount = opt.MissBurstCount
			cfg.MissBurstWindow = opt.MissBurstWindow
		}
		if opt.Metrics != nil {
			opt.Metrics.Rotate()
			cfg.Metrics = opt.Metrics
			if cfg.ProbeInterval <= 0 {
				cfg.ProbeInterval = opt.ProbeInterval
				if cfg.ProbeInterval <= 0 {
					cfg.ProbeInterval = 100 * units.Microsecond
				}
			}
		}
		n, err := network.New(cfg)
		if err != nil {
			return rep, epochErr(opt, epoch, cfg.Seed, err)
		}
		res := n.Run()
		auditErr := Audit(n, res)
		if auditErr == nil && opt.InjectFailure && i == 0 {
			auditErr = fmt.Errorf("injected invariant failure (InjectFailure set)")
		}
		if auditErr != nil {
			if fr != nil {
				fr.Trip("invariant-audit-failure", cfg.WarmUp+cfg.Measure)
				if path, derr := dumpFlight(fr, opt.FlightPath); derr != nil {
					auditErr = fmt.Errorf("%w (flight dump failed: %v)", auditErr, derr)
				} else {
					auditErr = fmt.Errorf("%w (flight recorder window: %s)", auditErr, path)
				}
			}
			return rep, epochErr(opt, epoch, cfg.Seed, auditErr)
		}
		if tripped, reason, at := fr.Tripped(); tripped {
			// The run-time SLO (deadline-miss burst) froze the ring
			// mid-epoch; the epoch itself still passed its audits.
			if path, derr := dumpFlight(fr, opt.FlightPath); derr != nil {
				logf("epoch %d: flight recorder tripped (%s at %v) but dump failed: %v",
					epoch, reason, at, derr)
			} else {
				logf("epoch %d: flight recorder tripped (%s at %v), window dumped to %s",
					epoch, reason, at, path)
			}
		}
		rep.Epochs = append(rep.Epochs, EpochReport{Epoch: epoch, Seed: cfg.Seed, Results: res})
		av := res.Availability
		logf("epoch %d ok: seed %#016x delivered=%d dropped-in-switch=%d availability[%v]",
			epoch, cfg.Seed, res.Conservation.DeliveredUnique,
			res.Conservation.DroppedInSwitch, av)
	}
	return rep, nil
}

// dumpFlight writes the flight window to path and returns the path.
func dumpFlight(fr *trace.FlightRecorder, path string) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := fr.WriteJSONL(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// epochErr wraps an epoch failure with its seed and replay recipe.
func epochErr(opt Options, epoch int, seed uint64, err error) error {
	extra := ""
	if opt.Policy != "" {
		extra += " -policy " + opt.Policy
	}
	if opt.Coflows {
		extra += " -coflows"
	}
	if opt.Rogues > 0 {
		extra += fmt.Sprintf(" -rogues %d", opt.Rogues)
	}
	if opt.Forges > 0 {
		extra += fmt.Sprintf(" -forges %d", opt.Forges)
	}
	if opt.Police {
		extra += " -police"
	}
	return fmt.Errorf("soak: epoch %d (seed %#016x): %w\nreplay: go run ./cmd/qossoak -seed %d -first-epoch %d -epochs 1 -shards %d%s",
		epoch, seed, err, opt.Seed, epoch, opt.Shards, extra)
}

// Audit runs every post-epoch invariant: packet conservation, structural
// network invariants (switch pools, credit bounds, admission ledger), and
// deadline-statistics sanity.
func Audit(n *network.Network, res *network.Results) error {
	if err := res.Conservation.Check(); err != nil {
		return fmt.Errorf("conservation: %w\n%v", err, res.Conservation)
	}
	if err := n.AuditInvariants(); err != nil {
		return fmt.Errorf("structural audit: %w", err)
	}
	return SanityCheck(res)
}

// SanityCheck validates the per-class deadline statistics: no class
// delivers more measured packets than it generated, latency quantiles are
// monotone, and miss rates stay in [0, 1].
func SanityCheck(res *network.Results) error {
	for c := 0; c < packet.NumClasses; c++ {
		cl := packet.Class(c)
		cs := &res.PerClass[c]
		if cs.DeliveredPackets > cs.GeneratedPackets {
			return fmt.Errorf("sanity: class %v delivered %d > generated %d",
				cl, cs.DeliveredPackets, cs.GeneratedPackets)
		}
		if cs.LatencyHist.Count() > 0 {
			p50, p99 := cs.LatencyHist.Quantile(0.50), cs.LatencyHist.Quantile(0.99)
			if p99 < p50 {
				return fmt.Errorf("sanity: class %v latency p99 %v < p50 %v", cl, p99, p50)
			}
		}
		if mr := res.MissRate(cl); mr < 0 || mr > 1 {
			return fmt.Errorf("sanity: class %v miss rate %v outside [0, 1]", cl, mr)
		}
	}
	return nil
}
