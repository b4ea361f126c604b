// Command qosim runs one simulation of the deadline-based QoS network and
// prints per-class performance indices. Flag groups layer the extension
// scenarios onto the same run:
//
//   - faults: -flaps, -derates, -switch-faults, -ber, -rogues and -forges
//     inject a random but reproducible fault plan drawn from -faultseed.
//     A plan that can lose packets (flaps, switch outages, bit errors)
//     switches on the end-to-end retransmission layer unless
//     -noreliability is given; -fault-trace prints the executed events.
//     -police and -guard arm the guarantee-protection plane.
//   - churn: -churn adds per-host Poisson session arrivals that negotiate
//     admission in-band with the CAC (-inter, -hold, -manager, -flash,
//     -flashat, -flashlen, -ctlservice, -ctlqueue); -delegate runs per-pod
//     CAC delegates, -local keeps session destinations intra-pod, and -csv
//     writes the session time series (needs -probe).
//   - trace: -trace DIR writes the lifecycle events of a sampled packet
//     subset (-sample, -maxevents; -sample 1 traces every packet, so the
//     gen, inject and deliver lines of trace.jsonl list every packet's
//     generation, injection and delivery) as trace.jsonl and trace_chrome.json
//     (load in https://ui.perfetto.dev) and, with -probe, the per-port and
//     engine telemetry as telemetry.csv and telemetry.json into DIR.
//   - policy: -policy selects the scheduling policy and -coflows attaches
//     the ring coflow workload.
//
// Every run is audited against the packet-conservation invariant; a
// violation exits non-zero, so the command doubles as a smoke check.
//
// Examples:
//
//	qosim -arch advanced -load 1.0 -topo paper -measure 50ms
//	qosim -arch traditional -load 0.8 -topo small -track
//	qosim -topo small -load 0.8 -flaps 4 -derates 2 -ber 1e-6 -fault-trace
//	qosim -topo small -load 0.8 -rogues 2 -rogue-factor 6 -police -guard 8KB
//	qosim -topo small -load 0.6 -churn -delegate -local 0.7 -flash 6
//	qosim -topo small -load 0.8 -trace /tmp/qostrace -sample 0.05 -probe 100us
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/cli"
	"deadlineqos/internal/coflow"
	"deadlineqos/internal/faults"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/metrics"
	"deadlineqos/internal/network"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/policy"
	"deadlineqos/internal/report"
	"deadlineqos/internal/session"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/traffic"
	"deadlineqos/internal/units"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qosim:", err)
		os.Exit(1)
	}
}

// faultFlags is the fault-injection flag group.
type faultFlags struct {
	seed                   *uint64
	flaps, derates         *int
	switches               *int
	switchMTTF, switchMTTR *string
	ber                    *float64
	rogues, forges         *int
	rogueFactor            *float64
	forgeScale             *float64
	noReliability          *bool
	showTrace              *bool
}

func faultFlagGroup() *faultFlags {
	return &faultFlags{
		seed:          flag.Uint64("faultseed", 1, "fault-plan seed (independent of the traffic seed)"),
		flaps:         flag.Int("flaps", 0, "number of link down/up flap pairs to schedule"),
		derates:       flag.Int("derates", 0, "number of bandwidth derate/restore pairs to schedule"),
		switches:      flag.Int("switch-faults", 0, "number of whole-switch outage pairs to schedule"),
		switchMTTF:    flag.String("switch-mttf", "10ms", "mean time between switch failures"),
		switchMTTR:    flag.String("switch-mttr", "500us", "mean switch outage duration"),
		ber:           flag.Float64("ber", 0, "bit-error rate applied to every link"),
		rogues:        flag.Int("rogues", 0, "number of RogueFlow misbehaviour windows to schedule"),
		rogueFactor:   flag.Float64("rogue-factor", 4, "traffic multiplier of RogueFlow windows"),
		forges:        flag.Int("forges", 0, "number of DeadlineForge misbehaviour windows to schedule"),
		forgeScale:    flag.Float64("forge-scale", 0.5, "deadline-tightening factor of DeadlineForge windows"),
		noReliability: flag.Bool("noreliability", false, "keep the end-to-end retransmission layer off under lossy faults"),
		showTrace:     flag.Bool("fault-trace", false, "print the executed fault trace"),
	}
}

// lossy reports whether the requested faults can lose packets.
func (f *faultFlags) lossy() bool { return *f.flaps > 0 || *f.switches > 0 || *f.ber > 0 }

// plan draws the random fault plan over every wired switch output link, or
// returns nil when no fault was requested.
func (f *faultFlags) plan(topo topology.Topology, horizon units.Time) (*faults.Plan, error) {
	if !f.lossy() && *f.derates == 0 && *f.rogues == 0 && *f.forges == 0 {
		return nil, nil
	}
	rcfg := faults.RandomConfig{
		Flaps:       *f.flaps,
		MinDown:     horizon / 200,
		MaxDown:     horizon / 25,
		Derates:     *f.derates,
		MinScale:    0.3,
		Hosts:       topo.Hosts(),
		Rogues:      *f.rogues,
		RogueFactor: *f.rogueFactor,
		Forges:      *f.forges,
		ForgeScale:  *f.forgeScale,
	}
	if *f.switches > 0 {
		var err error
		rcfg.Switches = topo.Switches()
		rcfg.SwitchFaults = *f.switches
		if rcfg.SwitchMTTF, err = cli.ParseDuration(*f.switchMTTF); err != nil {
			return nil, err
		}
		if rcfg.SwitchMTTR, err = cli.ParseDuration(*f.switchMTTR); err != nil {
			return nil, err
		}
	}
	var links []faults.LinkID
	for sw := 0; sw < topo.Switches(); sw++ {
		for p := 0; p < topo.Radix(sw); p++ {
			if topo.Peer(sw, p).ID != -1 {
				links = append(links, faults.LinkID{Switch: sw, Port: p})
			}
		}
	}
	plan := faults.RandomPlan(*f.seed, links, horizon, rcfg)
	plan.DefaultBER = *f.ber
	return plan, nil
}

// churnFlags is the dynamic-session flag group.
type churnFlags struct {
	on                *bool
	inter, hold       *string
	manager           *int
	delegate          *bool
	local             *float64
	ctlService        *string
	ctlQueue          *int
	flash             *float64
	flashAt, flashLen *string
	csv               *string
}

// churnMembers names the flags that only take effect with -churn.
var churnMembers = []string{"inter", "hold", "manager", "delegate", "local",
	"ctlservice", "ctlqueue", "flash", "flashat", "flashlen", "csv"}

func churnFlagGroup() *churnFlags {
	return &churnFlags{
		on:         flag.Bool("churn", false, "add per-host Poisson session arrivals negotiating admission in-band with the CAC"),
		inter:      flag.String("inter", "200us", "mean per-host session inter-arrival time"),
		hold:       flag.String("hold", "2ms", "mean session hold time"),
		manager:    flag.Int("manager", 0, "host index running the CAC endpoint"),
		delegate:   flag.Bool("delegate", false, "run per-pod CAC delegates under the root (survivable control plane)"),
		local:      flag.Float64("local", 0, "fraction of session destinations kept intra-pod (needs -delegate)"),
		ctlService: flag.String("ctlservice", "", "per-request CAC service time (e.g. 500ns; empty = default)"),
		ctlQueue:   flag.Int("ctlqueue", 0, "CAC control-queue capacity before shedding (0 = default)"),
		flash:      flag.Float64("flash", 0, "flash-crowd arrival-rate multiplier (0 = off)"),
		flashAt:    flag.String("flashat", "2ms", "flash-crowd window start"),
		flashLen:   flag.String("flashlen", "2ms", "flash-crowd window length"),
		csv:        flag.String("csv", "", "write the session time series as CSV to this file (needs -probe)"),
	}
}

// config builds the session configuration, or returns nil without -churn.
func (c *churnFlags) config() (*session.Config, error) {
	if !*c.on {
		return nil, nil
	}
	var err error
	scfg := session.Config{Manager: *c.manager, CtlQueueCap: *c.ctlQueue}
	if scfg.InterArrival, err = cli.ParseDuration(*c.inter); err != nil {
		return nil, err
	}
	if scfg.HoldMean, err = cli.ParseDuration(*c.hold); err != nil {
		return nil, err
	}
	if *c.flash > 0 {
		scfg.FlashFactor = *c.flash
		if scfg.FlashAt, err = cli.ParseDuration(*c.flashAt); err != nil {
			return nil, err
		}
		if scfg.FlashLen, err = cli.ParseDuration(*c.flashLen); err != nil {
			return nil, err
		}
	}
	if *c.delegate {
		scfg.Delegation = true
		scfg.LocalFrac = *c.local
	} else if *c.local != 0 {
		return nil, fmt.Errorf("-local needs -delegate")
	}
	if *c.ctlService != "" {
		if scfg.CtlService, err = cli.ParseDuration(*c.ctlService); err != nil {
			return nil, err
		}
	}
	return &scfg, nil
}

// traceFlags is the lifecycle-tracing flag group.
type traceFlags struct {
	dir       *string
	sample    *float64
	maxEvents *int
}

func traceFlagGroup() *traceFlags {
	return &traceFlags{
		dir:       flag.String("trace", "", "write trace.jsonl, trace_chrome.json and (with -probe) telemetry.{csv,json} into this directory"),
		sample:    flag.Float64("sample", 0.02, "fraction of packets to trace, in [0,1]"),
		maxEvents: flag.Int("maxevents", trace.DefaultMaxEvents, "trace event capacity (0 = default)"),
	}
}

// needs fails when a member flag of a group was set on the command line
// while the group's switch is off.
func needs(on bool, group string, members ...string) error {
	if on {
		return nil
	}
	var err error
	flag.Visit(func(f *flag.Flag) {
		for _, m := range members {
			if f.Name == m && err == nil {
				err = fmt.Errorf("-%s needs %s", m, group)
			}
		}
	})
	return err
}

func run() error {
	var (
		archName    = flag.String("arch", "advanced", "switch architecture: traditional|traditional4|ideal|simple|advanced")
		topoSpec    = flag.String("topo", "paper", "topology: paper|small|clos:L,D,U|tree:K,N|single:N")
		load        = flag.Float64("load", 1.0, "offered load per host as a fraction of link bandwidth")
		shards      = cli.ShardsFlag()
		seed        = flag.Uint64("seed", 1, "random seed (also drives packet sampling)")
		warmup      = flag.String("warmup", "5ms", "warm-up period excluded from measurement")
		measure     = flag.String("measure", "50ms", "measurement window")
		track       = flag.Bool("track", false, "enable the order-error measurement oracle (slower)")
		polName     = cli.PolicyFlag()
		coflows     = cli.CoflowsFlag()
		skew        = flag.String("skew", "0", "max per-node clock skew (e.g. 5us)")
		videoTrace  = flag.String("videotrace", "", "MPEG frame-size trace file for video streams (see traffic.LoadFrameTrace)")
		jsonOut     = flag.String("json", "", "write a result snapshot (diff two with qosbench -before -after) to this file")
		probe       = flag.String("probe", "", "telemetry probe interval (e.g. 100us; empty = off)")
		police      = flag.Bool("police", false, "enforce per-flow token-bucket policing at NIC ingress")
		guard       = flag.String("guard", "0", "regulated-VC occupancy guard bytes per switch output (0 = off)")
		metricsAddr = cli.MetricsAddrFlag()
		prof        = cli.ProfileFlags()
		ff          = faultFlagGroup()
		cf          = churnFlagGroup()
		tf          = traceFlagGroup()
	)
	flag.Parse()
	if err := needs(*cf.on, "-churn", churnMembers...); err != nil {
		return err
	}
	if err := needs(*tf.dir != "", "-trace", "sample", "maxevents"); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()

	a, err := arch.Parse(*archName)
	if err != nil {
		return err
	}
	topo, err := cli.ParseTopology(*topoSpec)
	if err != nil {
		return err
	}
	cfg := network.DefaultConfig()
	cfg.Arch = a
	cfg.Topology = topo
	cfg.Load = *load
	cfg.Seed = *seed
	cfg.Shards = *shards
	// The take-over and order-error observers only fire on tracked
	// buffers; a tracing run wants them.
	cfg.TrackOrderErrors = *track || *tf.dir != ""
	if cfg.WarmUp, err = cli.ParseDuration(*warmup); err != nil {
		return err
	}
	if cfg.Measure, err = cli.ParseDuration(*measure); err != nil {
		return err
	}
	if cfg.ClockSkewMax, err = cli.ParseDuration(*skew); err != nil {
		return err
	}
	if *probe != "" {
		if cfg.ProbeInterval, err = cli.ParseDuration(*probe); err != nil {
			return err
		}
	}
	if cfg.Policy, err = policy.Parse(*polName); err != nil {
		return err
	}
	if *coflows {
		cfg.Coflows = &coflow.Config{StartAt: cfg.WarmUp}
	}
	cfg.Police = *police
	if cfg.GuardBytes, err = cli.ParseSize(*guard); err != nil {
		return fmt.Errorf("-guard: %w", err)
	}
	if *videoTrace != "" {
		f, err := os.Open(*videoTrace)
		if err != nil {
			return err
		}
		frames, err := traffic.LoadFrameTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		cfg.VideoTraceFrames = frames
	}
	if topo.Hosts() < 32 {
		// Small networks cannot spread flows over the default fan-out.
		cfg.ControlDests = min(cfg.ControlDests, topo.Hosts()-1)
		cfg.BEDests = min(cfg.BEDests, topo.Hosts()-1)
	}

	horizon := cfg.WarmUp + cfg.Measure
	if cfg.Faults, err = ff.plan(topo, horizon); err != nil {
		return err
	}
	if cfg.Sessions, err = cf.config(); err != nil {
		return err
	}
	cfg.CheckInvariants = cfg.Faults != nil || cfg.Sessions != nil
	reliability := ff.lossy() && !*ff.noReliability
	cfg.Reliability = hostif.Reliability{Enabled: reliability}
	if *cf.csv != "" && cfg.ProbeInterval <= 0 {
		return fmt.Errorf("-csv needs -probe to record the session series")
	}

	var tr *trace.Tracer
	if *tf.dir != "" {
		if tr, err = trace.New(trace.Config{SampleRate: *tf.sample, Seed: *seed, MaxEvents: *tf.maxEvents}); err != nil {
			return err
		}
		cfg.Tracer = tr
	}
	if *metricsAddr != "" {
		cfg.Metrics = metrics.NewRegistry()
		if cfg.ProbeInterval <= 0 {
			// The metrics plane publishes on the probe cadence; give the
			// scrape server something live to show.
			cfg.ProbeInterval = 100 * units.Microsecond
		}
		srv, err := cli.StartMetrics(*metricsAddr, cfg.Metrics)
		if err != nil {
			return err
		}
		defer srv.Close()
	}
	fmt.Printf("topology=%s arch=%s policy=%s load=%.0f%% seed=%d window=[%v, %v]\n",
		topo.Name(), a, cfg.Policy.Name(), 100*cfg.Load, cfg.Seed, cfg.WarmUp, horizon)
	if p := cfg.Faults; p != nil {
		fmt.Printf("faults: %d plan events, faultseed=%d, BER %.2g on all links, reliability=%v\n",
			len(p.Events), *ff.seed, p.DefaultBER, reliability)
	}
	if s := cfg.Sessions; s != nil {
		fmt.Printf("sessions: inter-arrival=%v hold=%v manager=%d flash=%.1fx delegate=%v\n",
			s.InterArrival, s.HoldMean, s.Manager, s.FlashFactor, s.Delegation)
	}
	if tr != nil {
		fmt.Printf("trace: sample=%.3g probe=%v -> %s\n", *tf.sample, cfg.ProbeInterval, *tf.dir)
	}

	res, err := network.Run(cfg)
	if err != nil {
		return err
	}

	if *ff.showTrace {
		fmt.Println("fault trace:")
		for _, e := range res.FaultTrace {
			fmt.Printf("  %v\n", e)
		}
	}
	fmt.Println(report.PerClassTable("per-class results", res.Collector))
	fmt.Printf("events=%d xbar=%d sends=%d pending=%d videoStreams/host=%d\n",
		res.SimEvents, res.XbarTransfers, res.LinkSends, res.PendingAtHorizon, res.VideoStreamsPerHost)
	if cfg.TrackOrderErrors {
		fmt.Printf("orderErrors=%d takeOvers=%d\n", res.OrderErrors, res.TakeOvers)
	}
	if c := res.Coflows; c != nil {
		completion := "incomplete"
		if c.AllDone {
			completion = c.CompletionTime.String()
		}
		fmt.Printf("coflows=%d admitted=%d rejected=%d completed=%d deadlineMet=%d completion=%s\n",
			c.Coflows, c.Admitted, c.Rejected, c.Completed, c.DeadlineMet, completion)
	}
	if res.Conservation.EvictedAtNIC > 0 {
		fmt.Printf("policyEvictions=%d weightedGoodput=%.3f\n",
			res.Conservation.EvictedAtNIC, res.WeightedGoodput())
	}
	if cfg.Faults != nil {
		printFaults(res)
	}
	if res.Police != nil {
		fmt.Printf("policing: %v\n", res.Police)
	}
	if res.Sessions != nil {
		printSessions(res)
		if *cf.csv != "" {
			if err := writeFile(*cf.csv, res.Telemetry.WriteSessionsCSV); err != nil {
				return err
			}
			fmt.Printf("session series: %d samples -> %s\n", len(res.Telemetry.Sessions), *cf.csv)
		}
	}
	if tr != nil {
		if err := writeTrace(*tf.dir, tr, res); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		label := fmt.Sprintf("%s arch=%s load=%.2f seed=%d", topo.Name(), a.Flag(), cfg.Load, cfg.Seed)
		if err := writeFile(*jsonOut, res.Snapshot(label).WriteJSON); err != nil {
			return err
		}
	}
	if err := res.Conservation.Check(); err != nil {
		return err
	}
	fmt.Println("conservation: OK")
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// printFaults reports what the fault plan broke and how the hosts recovered.
func printFaults(res *network.Results) {
	t := report.NewTable("per-class recovery under faults",
		"class", "corrupt", "lost", "retx", "demoted", "frame p99")
	for c := packet.Class(0); c < packet.NumClasses; c++ {
		cs := &res.PerClass[c]
		frame := "-"
		if cs.FrameLatency.Count() > 0 {
			frame = cs.FrameHist.Quantile(0.99).String()
		}
		t.Add(c.String(),
			fmt.Sprintf("%d", cs.CorruptedPackets),
			fmt.Sprintf("%d", cs.LostPackets),
			fmt.Sprintf("%d", cs.RetransmittedPackets),
			fmt.Sprintf("%d", cs.DemotedPackets),
			frame)
	}
	fmt.Println(t)
	rel := res.Reliability
	fmt.Printf("faults: events=%d lost=%d corruptInFlight=%d\n",
		res.FaultEvents, res.LostOnLink, res.CorruptedInFlight)
	fmt.Printf("recovery: acked=%d timeouts=%d naks=%d retx=%d demoted=%d dups=%d outstandingAtStop=%d\n",
		rel.Acked, rel.Timeouts, rel.Naks, rel.Retransmitted, rel.Demoted, rel.RxDup, res.OutstandingAtStop)
	fmt.Printf("conservation: %v\n", res.Conservation)
	if res.Availability != nil {
		fmt.Printf("availability: %v\n", res.Availability)
	}
}

// printSessions reports the session lifecycle and the admission plane.
func printSessions(res *network.Results) {
	s := res.Sessions
	t := report.NewTable("session lifecycle",
		"started", "granted", "rejected", "retries", "timeouts", "downgraded",
		"finished", "released", "active at stop")
	t.Add(fmt.Sprintf("%d", s.Started), fmt.Sprintf("%d", s.Granted),
		fmt.Sprintf("%d", s.Rejected), fmt.Sprintf("%d", s.Retries),
		fmt.Sprintf("%d", s.Timeouts), fmt.Sprintf("%d", s.Downgraded),
		fmt.Sprintf("%d", s.Finished), fmt.Sprintf("%d", s.Released),
		fmt.Sprintf("%d", s.ActiveAtStop))
	fmt.Println(t)

	fmt.Printf("admission: accept ratio %.3f, setup latency mean %v p50 %v p99 %v (%d samples)\n",
		s.AcceptRatio, units.Time(s.SetupMeanNs), s.SetupP50, s.SetupP99, s.SetupCount)
	fmt.Printf("utilisation: reserved %.1f%% achieved %.1f%% of injection capacity\n",
		100*s.ReservedUtil, 100*s.AchievedUtil)
	fmt.Printf("revocation: revoked=%d rerouted=%d downgraded=%d stale teardowns=%d\n",
		s.Revoked, s.Rerouted, s.RevokeDowngrades, s.StaleTears)
	if cp := res.ControlPlane; cp != nil && cp.Delegated {
		fmt.Printf("control plane: %d pods, %d delegates, local grants %d, escalated %d, shed %d\n",
			cp.Pods, cp.Delegates, cp.LocalGrants, cp.Escalated, cp.Shed)
		fmt.Printf("leases: granted=%d requested=%d denied=%d returned=%d renewals=%d\n",
			cp.LeaseGrants, cp.LeaseRequests, cp.LeaseDenied, cp.LeaseReturns, cp.LeaseRenewals)
		fmt.Printf("failover: promotions=%d reclaims=%d replays=%d breaker opens=%d breaker rejects=%d\n",
			cp.Promotions, cp.Reclaims, cp.FailoverReplays, cp.BreakerOpens, cp.BreakerRejects)
		if cp.FailoverCount > 0 {
			fmt.Printf("failover TTR: p50 %v p99 %v (%d failovers)\n",
				cp.FailoverP50, cp.FailoverP99, cp.FailoverCount)
		}
	}
	fmt.Printf("traffic: data %d pkts (%v), signalling %d pkts (%v)\n",
		s.DataPackets, s.DataBytes, s.SigPackets, s.SigBytes)
}

// writeTrace writes the trace and telemetry artefacts into dir and prints
// the per-hop dequeue slack of the sampled packets.
func writeTrace(dir string, tr *trace.Tracer, res *network.Results) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	artefacts := map[string]func(io.Writer) error{
		"trace.jsonl":       tr.WriteJSONL,
		"trace_chrome.json": tr.WriteChromeTrace,
	}
	if tel := res.Telemetry; tel != nil {
		artefacts["telemetry.csv"] = tel.WriteCSV
		artefacts["telemetry.json"] = tel.WriteJSON
	}
	for name, write := range artefacts {
		if err := writeFile(filepath.Join(dir, name), write); err != nil {
			return err
		}
	}

	if hs := tr.HopSlack(); len(hs) > 0 {
		t := report.NewTable("dequeue slack per hop (sampled packets)",
			"hop", "dequeues", "slack avg", "slack min", "slack max")
		for _, h := range hs {
			t.Add(fmt.Sprintf("%d", h.Hop), fmt.Sprintf("%d", h.Count),
				units.Time(h.MeanNs).String(), units.Time(h.MinNs).String(),
				units.Time(h.MaxNs).String())
		}
		fmt.Println(t)
	}
	dropNote := ""
	if d := tr.Dropped(); d > 0 {
		dropNote = fmt.Sprintf(" (%d dropped at the event cap — raise -maxevents or lower -sample)", d)
	}
	fmt.Printf("trace: %d sampled packets, %d events%s\n", tr.SampledPackets(), tr.Len(), dropNote)
	if tel := res.Telemetry; tel != nil {
		fmt.Printf("telemetry: %d port samples, %d engine samples every %v\n",
			len(tel.Ports), len(tel.Engine), tel.Interval)
	}
	fmt.Printf("profile: %v\n", &res.Perf)
	return nil
}
