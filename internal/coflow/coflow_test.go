package coflow

import (
	"strings"
	"testing"

	"deadlineqos/internal/admission"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/units"
)

func testDeps(t *testing.T) Deps {
	t.Helper()
	topo, err := topology.NewFoldedClos(4, 4, 4) // 16 hosts
	if err != nil {
		t.Fatal(err)
	}
	adm, err := admission.New(topo, 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return Deps{
		Hosts:  topo.Hosts(),
		MTU:    2 * units.Kilobyte,
		LinkBW: 1.0,
		Adm:    adm,
		Topo:   topo,
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Rounds: 4, Chunk: 8 * units.Kilobyte}
	cases := []struct {
		name  string
		hosts int
		mod   func(*Config)
		want  string // substring of the error; "" = valid
	}{
		{"valid", 16, func(*Config) {}, ""},
		{"two hosts", 2, func(*Config) {}, ""},
		{"one host", 1, func(*Config) {}, "at least 2 hosts"},
		{"zero hosts", 0, func(*Config) {}, "at least 2 hosts"},
		{"negative rounds", 16, func(c *Config) { c.Rounds = -2 }, "negative rounds"},
		{"negative chunk", 16, func(c *Config) { c.Chunk = -1 }, "negative chunk"},
		{"negative start", 16, func(c *Config) { c.StartAt = -1 }, "negative start"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := good
			tc.mod(&c)
			err := c.Validate(tc.hosts)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults(16)
	if c.Rounds != 15 {
		t.Errorf("default rounds %d, want hosts-1", c.Rounds)
	}
	if c.Chunk != 16*units.Kilobyte {
		t.Errorf("default chunk %v", c.Chunk)
	}
	// Explicit fields survive.
	c2 := Config{Rounds: 3, Chunk: units.Kilobyte, StartAt: units.Millisecond}.WithDefaults(16)
	if c2.Rounds != 3 || c2.Chunk != units.Kilobyte || c2.StartAt != units.Millisecond {
		t.Errorf("explicit config rewritten: %+v", c2)
	}
}

func TestWireBytes(t *testing.T) {
	mtu := units.Size(2 * units.Kilobyte)
	maxPayload := mtu - packet.HeaderSize
	// One full packet exactly.
	if got := wireBytes(maxPayload, mtu); got != mtu {
		t.Errorf("single-packet chunk: %v, want %v", got, mtu)
	}
	// One byte over: a second header.
	if got := wireBytes(maxPayload+1, mtu); got != maxPayload+1+2*packet.HeaderSize {
		t.Errorf("two-packet chunk: %v", got)
	}
}

func TestSigmaAdmitsAllOnIdleFabric(t *testing.T) {
	deps := testDeps(t)
	m, err := New(Config{Rounds: 8, Chunk: 8 * units.Kilobyte}, deps)
	if err != nil {
		t.Fatal(err)
	}
	for r, ok := range m.AdmittedRounds() {
		if !ok {
			t.Fatalf("round %d rejected on an idle fabric", r)
		}
	}
	// The admitted sustained rate is reserved through the CAC per host.
	for h := 0; h < deps.Hosts; h++ {
		if deps.Adm.HostReserved(h) <= 0 {
			t.Fatalf("host %d has no reservation after admission", h)
		}
	}
	// Deadlines ascend.
	for r := 1; r < 8; r++ {
		if m.Deadline(r) <= m.Deadline(r-1) {
			t.Fatalf("deadline %d (%v) not after %d (%v)", r, m.Deadline(r), r-1, m.Deadline(r-1))
		}
	}
}

func TestSigmaRejectsAllOnImpossibleTarget(t *testing.T) {
	deps := testDeps(t)
	// Fill every host's injection ledger before the σ pass: no round's
	// deadline can then be met with the capacity left.
	full := units.Bandwidth(deps.Adm.MaxUtil()) * deps.LinkBW
	before := make([]units.Bandwidth, deps.Hosts)
	for h := 0; h < deps.Hosts; h++ {
		dst := (h + 1) % deps.Hosts
		deps.Adm.Restore(h, deps.Adm.RouteBestEffort(h, dst, uint64(h)), full)
		before[h] = deps.Adm.HostReserved(h)
	}
	m, err := New(Config{Rounds: 8, Chunk: 8 * units.Kilobyte}, deps)
	if err != nil {
		t.Fatal(err)
	}
	for r, ok := range m.AdmittedRounds() {
		if ok {
			t.Fatalf("round %d admitted on a full ledger", r)
		}
	}
	for h := 0; h < deps.Hosts; h++ {
		if got := deps.Adm.HostReserved(h); got != before[h] {
			t.Fatalf("host %d reserved %v beyond the filled %v despite total rejection", h, got, before[h])
		}
	}
	// Rejected rounds still run, demoted to best-effort.
	res := m.BuildResults()
	if res.Rejected != 8 || res.Admitted != 0 {
		t.Fatalf("split %d/%d, want 0/8", res.Admitted, res.Rejected)
	}
}

func TestFlowRecords(t *testing.T) {
	for _, aware := range []bool{false, true} {
		deps := testDeps(t)
		deps.CoflowDeadlines = aware
		m, err := New(Config{Rounds: 4}, deps)
		if err != nil {
			t.Fatal(err)
		}
		for h := 0; h < deps.Hosts; h++ {
			fs := m.FlowsFor(h)
			if len(fs) != 2 {
				t.Fatalf("host %d has %d flows, want 2", h, len(fs))
			}
			adm, rej := fs[0], fs[1]
			if adm.ID != AdmittedBase+packet.FlowID(h) || rej.ID != RejectedBase+packet.FlowID(h) {
				t.Fatalf("host %d flow ids %v/%v", h, adm.ID, rej.ID)
			}
			if adm.Class != packet.Multimedia || rej.Class != packet.BestEffort {
				t.Fatalf("host %d classes %v/%v", h, adm.Class, rej.Class)
			}
			if adm.Dst != (h+1)%deps.Hosts || rej.Dst != (h+1)%deps.Hosts {
				t.Fatalf("host %d not a ring: dst %d/%d", h, adm.Dst, rej.Dst)
			}
			if aware && adm.Mode != hostif.Absolute {
				t.Fatalf("coflow-aware admitted flow mode %v, want Absolute", adm.Mode)
			}
			if !aware && adm.Mode != hostif.ByBandwidth {
				t.Fatalf("default admitted flow mode %v, want ByBandwidth", adm.Mode)
			}
			if rej.Mode != hostif.ByBandwidth {
				t.Fatalf("rejected flow mode %v", rej.Mode)
			}
			if adm.Value != 1 || rej.Value != 1 {
				t.Fatalf("value densities %v/%v, want 1", adm.Value, rej.Value)
			}
			if adm.BW <= 0 || rej.BW <= 0 {
				t.Fatalf("non-positive flow rates %v/%v", adm.BW, rej.BW)
			}
		}
	}
}

func TestMissRate(t *testing.T) {
	r := Results{Coflows: 8, DeadlineMet: 6}
	if got := r.MissRate(); got != 0.25 {
		t.Errorf("miss rate %v, want 0.25", got)
	}
	empty := Results{}
	if got := empty.MissRate(); got != 0 {
		t.Errorf("empty miss rate %v", got)
	}
}
