// The ring collective end to end: the MPI-style ring all-gather that E3
// measures, run on a network as the coflow workload of
// network.Config.Coflows. An external test package, because network
// imports coflow.
package coflow_test

import (
	"strings"
	"testing"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/coflow"
	"deadlineqos/internal/network"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
)

// run builds a small network carrying the ring collective c and runs it.
func run(t *testing.T, a arch.Arch, load float64, c coflow.Config) *coflow.Results {
	t.Helper()
	cfg := network.SmallConfig()
	cfg.Arch = a
	cfg.Load = load
	// Interference: multimedia shares the regulated VC with the
	// collective's admitted rounds (the Traditional switch's weak spot)
	// and best-effort fills the rest.
	cfg.ClassShare = [packet.NumClasses]float64{0, 0.25, 0.375, 0.375}
	cfg.WarmUp = 0
	cfg.Measure = 20 * units.Millisecond
	cfg.Coflows = &c
	res, err := network.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Coflows
}

func TestRingCollectiveCompletes(t *testing.T) {
	r := run(t, arch.Advanced2VC, 0, coflow.Config{Chunk: 4 * units.Kilobyte, StartAt: units.Millisecond})
	if !r.AllDone {
		t.Fatalf("collective incomplete: %d of %d rounds", r.Completed, r.Coflows)
	}
	if r.CompletionTime <= 0 {
		t.Fatalf("completion time %v", r.CompletionTime)
	}
	// 15 rounds of a 3-packet chunk on an idle 16-host network finish in
	// well under a millisecond.
	if r.CompletionTime > units.Millisecond {
		t.Fatalf("idle-network collective took %v", r.CompletionTime)
	}
}

func TestRingSemantics(t *testing.T) {
	// With Rounds = 3 every host must receive exactly 3 chunks: the ring's
	// gating submits a host's next round only after its previous one
	// arrived.
	cfg := network.SmallConfig()
	cfg.Arch = arch.Ideal
	cfg.Load = 0
	cfg.WarmUp = 0
	cfg.Measure = 10 * units.Millisecond
	cfg.Coflows = &coflow.Config{Chunk: 3000, Rounds: 3}
	tr, err := trace.New(trace.Config{SampleRate: 1, MaxEvents: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tracer = tr
	res, err := network.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := tr.Dropped(); d > 0 {
		t.Fatalf("full-sampling tracer dropped %d events at its cap", d)
	}
	hosts := cfg.Topology.Hosts()
	arrivals := make([]int, hosts)
	tr.Each(func(ev trace.Event) {
		if ev.Kind == trace.KindDelivered &&
			ev.Flow >= coflow.AdmittedBase && ev.Flow < coflow.RejectedBase+packet.FlowID(hosts) {
			arrivals[ev.Dst]++
		}
	})
	if !res.Coflows.AllDone {
		t.Fatalf("3-round collective incomplete: %d rounds completed", res.Coflows.Completed)
	}
	// 3000-byte chunk at 2KB MTU = 2 packets per chunk, 3 rounds.
	for h, got := range arrivals {
		if got != 6 {
			t.Fatalf("host %d received %d collective packets, want 6", h, got)
		}
	}
}

func TestCollectiveProtectedByEDF(t *testing.T) {
	// Under heavy best-effort interference the EDF architecture must
	// complete the collective far faster than the deadline-blind
	// Traditional switch — the paper's parallel-application motivation.
	col := coflow.Config{Chunk: 8 * units.Kilobyte, StartAt: 2 * units.Millisecond}
	adv := run(t, arch.Advanced2VC, 1.0, col)
	trad := run(t, arch.Traditional2VC, 1.0, col)
	if !adv.AllDone {
		t.Fatalf("EDF collective incomplete under interference: %d of %d rounds", adv.Completed, adv.Coflows)
	}
	if adv.DeadlineMet < trad.DeadlineMet {
		t.Fatalf("EDF met fewer round deadlines than Traditional: %d vs %d", adv.DeadlineMet, trad.DeadlineMet)
	}
	if !trad.AllDone {
		// Traditional may genuinely fail to finish in the window — that
		// is itself the result; just require EDF finished.
		t.Logf("Traditional collective incomplete (%d of %d rounds)", trad.Completed, trad.Coflows)
		return
	}
	t.Logf("completion: advanced=%v traditional=%v", adv.CompletionTime, trad.CompletionTime)
	if adv.CompletionTime >= trad.CompletionTime {
		t.Fatalf("EDF did not protect the collective: %v vs %v", adv.CompletionTime, trad.CompletionTime)
	}
}

// TestBindValidation checks the wiring of the collective into a network:
// network.New validates Config.Coflows, and one coflow configuration can
// be wired into several networks, each with its own ring state.
func TestBindValidation(t *testing.T) {
	cfg := network.SmallConfig()
	cfg.Load = 0
	cfg.WarmUp = 0
	cfg.Measure = units.Millisecond
	cfg.Coflows = &coflow.Config{Chunk: -1}
	if _, err := network.New(cfg); err == nil || !strings.Contains(err.Error(), "negative chunk") {
		t.Errorf("negative chunk: error %v", err)
	}
	// A zero chunk selects the default size instead of failing.
	cfg.Coflows = &coflow.Config{Chunk: 0}
	if _, err := network.New(cfg); err != nil {
		t.Errorf("zero chunk: %v", err)
	}
	cfg.Coflows = &coflow.Config{Chunk: 1000}
	var first *coflow.Results
	for i := 0; i < 2; i++ {
		res, err := network.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Coflows.AllDone {
			t.Fatalf("network %d: %d of %d rounds completed", i, res.Coflows.Completed, res.Coflows.Coflows)
		}
		if first == nil {
			first = res.Coflows
		} else if *res.Coflows != *first {
			t.Fatalf("second network sharing the configuration differs: %+v vs %+v", *res.Coflows, *first)
		}
	}
}

// TestCollectiveConfigValidate checks the ring's configuration as
// network.New sees it: from a chunk-only config, defaults first, then
// Validate. coflow's own TestConfigValidate checks Validate alone.
func TestCollectiveConfigValidate(t *testing.T) {
	good := coflow.Config{Chunk: units.Kilobyte}
	cases := []struct {
		name  string
		hosts int
		mod   func(*coflow.Config)
		ok    bool
	}{
		{"valid", 16, func(*coflow.Config) {}, true},
		{"valid explicit rounds", 16, func(c *coflow.Config) { c.Rounds = 3 }, true},
		{"zero rounds selects default", 16, func(c *coflow.Config) { c.Rounds = 0 }, true},
		{"two hosts minimum ring", 2, func(*coflow.Config) {}, true},
		{"one host", 1, func(*coflow.Config) {}, false},
		{"zero hosts", 0, func(*coflow.Config) {}, false},
		{"negative rounds", 16, func(c *coflow.Config) { c.Rounds = -1 }, false},
		{"zero chunk", 16, func(c *coflow.Config) { c.Chunk = 0 }, true},
		{"negative chunk", 16, func(c *coflow.Config) { c.Chunk = -units.Kilobyte }, false},
		{"negative start", 16, func(c *coflow.Config) { c.StartAt = -1 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := good
			tc.mod(&c)
			err := c.WithDefaults(tc.hosts).Validate(tc.hosts)
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("invalid config accepted")
			}
		})
	}
}

func TestBindRejectsNegativeRounds(t *testing.T) {
	cfg := network.SmallConfig()
	cfg.Load = 0
	cfg.WarmUp = 0
	cfg.Measure = units.Millisecond
	cfg.Coflows = &coflow.Config{Chunk: units.Kilobyte, Rounds: -3}
	if _, err := network.New(cfg); err == nil {
		t.Fatal("negative rounds accepted")
	}
}

func TestCollectiveOnMesh(t *testing.T) {
	// The workload is topology-agnostic: run the ring over a 2D mesh.
	mesh, err := topology.NewMesh2D(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.SmallConfig()
	cfg.Topology = mesh
	cfg.Arch = arch.Advanced2VC
	cfg.Load = 0.3
	cfg.ControlDests = 3
	cfg.BEDests = 3
	cfg.WarmUp = 0
	cfg.Measure = 10 * units.Millisecond
	cfg.Coflows = &coflow.Config{Chunk: 2 * units.Kilobyte, StartAt: units.Millisecond}
	res, err := network.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cr := res.Coflows; !cr.AllDone || cr.Coflows != mesh.Hosts()-1 {
		t.Fatalf("mesh collective: %d of %d rounds completed, want all %d", cr.Completed, cr.Coflows, mesh.Hosts()-1)
	}
}
