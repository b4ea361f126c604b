package policy

import (
	"testing"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/pqueue"
	"deadlineqos/internal/units"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"", "default", true},
		{"default", "default", true},
		{"coflow-edf", "coflow-edf", true},
		{"value-drop", "value-drop", true},
		{"value-drop-tail", "value-drop-tail", true},
		{"nonsense", "", false},
	}
	for _, tc := range cases {
		p, err := Parse(tc.in)
		if tc.ok != (err == nil) {
			t.Fatalf("Parse(%q) error = %v", tc.in, err)
		}
		if tc.ok && p.Name() != tc.want {
			t.Fatalf("Parse(%q).Name() = %q, want %q", tc.in, p.Name(), tc.want)
		}
	}
	for _, name := range Names() {
		if _, err := Parse(name); err != nil {
			t.Fatalf("listed policy %q does not parse: %v", name, err)
		}
	}
}

func TestCoflowAwareness(t *testing.T) {
	if IsCoflowAware(Default()) {
		t.Error("default policy claims coflow awareness")
	}
	if !IsCoflowAware(CoflowEDF()) {
		t.Error("coflow-edf policy is not coflow aware")
	}
	if IsCoflowAware(ValueDrop(0, false)) {
		t.Error("value-drop policy claims coflow awareness")
	}
	if IsCoflowAware(nil) {
		t.Error("nil policy claims coflow awareness")
	}
}

func TestDefaultHostQueues(t *testing.T) {
	// Deadline-aware architectures stage in EDF heaps, deadline-blind ones
	// in FIFOs — exactly the seed NIC's wiring.
	for vc := 0; vc < packet.NumVCs; vc++ {
		q := Default().NewHostQueue(arch.Advanced2VC, packet.VC(vc))
		if _, ok := q.(*pqueue.DeadlineHeap[*packet.Staged]); !ok {
			t.Fatalf("Advanced2VC VC %d staged in %T, want heap", vc, q)
		}
		q = Default().NewHostQueue(arch.Traditional2VC, packet.VC(vc))
		if _, ok := q.(*pqueue.Fifo[*packet.Staged]); !ok {
			t.Fatalf("Traditional2VC VC %d staged in %T, want FIFO", vc, q)
		}
	}
}

func TestValueDropHostQueues(t *testing.T) {
	// Only the best-effort VC gets the bounded queue; regulated VCs keep
	// the default staging.
	pol := ValueDrop(0, false)
	for vc := 0; vc < packet.NumVCs; vc++ {
		q := pol.NewHostQueue(arch.Advanced2VC, packet.VC(vc))
		_, bounded := q.(*pqueue.DropQueue[*packet.Staged])
		wantBounded := vc < arch.Advanced2VC.VCs() && packet.VC(vc) >= arch.Advanced2VC.VCFor(packet.BestEffort)
		if bounded != wantBounded {
			t.Fatalf("Advanced2VC VC %d: bounded=%v, want %v (%T)", vc, bounded, wantBounded, q)
		}
		if bounded && q.Capacity() != DefaultDropBound {
			t.Fatalf("zero bound resolved to %v, want %v", q.Capacity(), DefaultDropBound)
		}
	}
	if q := ValueDrop(4*units.Kilobyte, true).NewHostQueue(arch.Advanced2VC, arch.Advanced2VC.VCFor(packet.BestEffort)); q.Capacity() != 4*units.Kilobyte {
		t.Fatalf("explicit bound ignored: %v", q.Capacity())
	}
}

func TestPickInjectMatchesSeedOrder(t *testing.T) {
	// The default policy injects from the lowest-numbered VC whose head
	// the link accepts — the seed NIC's loop.
	pol := Default()
	var ready [packet.NumVCs]HostQueue
	for vc := range ready {
		ready[vc] = pol.NewHostQueue(arch.Advanced2VC, packet.VC(vc))
	}
	mk := func(vc int, deadline units.Time) *packet.Staged {
		r := &packet.Staged{ID: uint64(vc*100) + uint64(deadline), Deadline: deadline, Size: 64, VC: packet.VC(vc)}
		ready[vc].Push(r)
		return r
	}
	if got := pol.PickInject(&ready, func(*packet.Staged) bool { return true }); got != -1 {
		t.Fatalf("empty NIC picked VC %d", got)
	}
	mk(1, 50)
	r0 := mk(0, 90)
	if got := pol.PickInject(&ready, func(*packet.Staged) bool { return true }); got != 0 {
		t.Fatalf("picked VC %d, want regulated VC 0 first", got)
	}
	// Block VC 0 (no credit): VC 1 must be picked instead.
	if got := pol.PickInject(&ready, func(r *packet.Staged) bool { return r != r0 }); got != 1 {
		t.Fatalf("picked VC %d, want 1 when VC 0 is blocked", got)
	}
	if got := pol.PickInject(&ready, func(*packet.Staged) bool { return false }); got != -1 {
		t.Fatalf("picked VC %d with all heads blocked", got)
	}
}

func TestDefaultArbiterPickLinkVC(t *testing.T) {
	// Deadline-aware link scheduling gives the regulated VC absolute
	// priority: the lowest-numbered VC with a transmittable head wins,
	// regardless of the best-effort head's TTD; a credit-blocked
	// regulated head lets best-effort use the idle link.
	arb := Default().NewArbiter(ArbiterConfig{Arch: arch.Advanced2VC, Radix: 4})
	var heads [packet.NumVCs]*packet.Packet
	mk := func(vc int, ttd units.Time) *packet.Packet {
		p := &packet.Packet{ID: uint64(vc + 1), TTD: ttd, Size: 64, VC: packet.VC(vc)}
		heads[vc] = p
		return p
	}
	if got := arb.PickLinkVC(&heads, func(*packet.Packet) bool { return true }); got != -1 {
		t.Fatalf("empty heads picked VC %d", got)
	}
	mk(0, 100)
	mk(1, 40) // earlier TTD, but on the best-effort VC
	if got := arb.PickLinkVC(&heads, func(*packet.Packet) bool { return true }); got != 0 {
		t.Fatalf("picked VC %d, want regulated VC first", got)
	}
	if got := arb.PickLinkVC(&heads, func(p *packet.Packet) bool { return p.VC != 0 }); got != 1 {
		t.Fatalf("picked VC %d, want 1 when VC 0 lacks credit", got)
	}
	if got := arb.PickLinkVC(&heads, func(*packet.Packet) bool { return false }); got != -1 {
		t.Fatalf("picked VC %d with no credits anywhere", got)
	}
}

func TestArbitersAreIndependent(t *testing.T) {
	// Each NewArbiter call returns private round-robin/EDF state: two
	// ports advancing one arbiter must not disturb the other.
	cfgA := ArbiterConfig{Arch: arch.Traditional2VC, Radix: 4}
	a := Default().NewArbiter(cfgA)
	b := Default().NewArbiter(cfgA)
	if a == b {
		t.Fatal("NewArbiter returned shared state")
	}
}
