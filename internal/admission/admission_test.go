package admission

import (
	"testing"

	"deadlineqos/internal/topology"
	"deadlineqos/internal/units"
)

func newController(t *testing.T, maxUtil float64) (*Controller, *topology.FoldedClos) {
	t.Helper()
	topo := topology.PaperMIN()
	c, err := New(topo, 1, maxUtil)
	if err != nil {
		t.Fatal(err)
	}
	return c, topo
}

func TestNewValidation(t *testing.T) {
	topo := topology.PaperMIN()
	if _, err := New(topo, 1, 0); err == nil {
		t.Error("maxUtil 0 accepted")
	}
	if _, err := New(topo, 1, 1.5); err == nil {
		t.Error("maxUtil > 1 accepted")
	}
	if _, err := New(topo, 0, 0.5); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestReserveReturnsWalkableRoute(t *testing.T) {
	c, topo := newController(t, 1.0)
	route, _, err := c.Reserve(0, 127, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 3 {
		t.Fatalf("route length %d, want 3 (leaf-spine-leaf)", len(route))
	}
	// The route must match some topology path.
	found := false
	for ch := 0; ch < topo.PathCount(0, 127); ch++ {
		hops := topo.Path(0, 127, ch)
		same := len(hops) == len(route)
		for i := range hops {
			if same && hops[i].OutPort != route[i] {
				same = false
			}
		}
		if same {
			found = true
		}
	}
	if !found {
		t.Fatalf("route %v is not a minimal path", route)
	}
}

func TestReserveBalancesAcrossSpines(t *testing.T) {
	c, _ := newController(t, 1.0)
	// 8 identical cross-leaf flows from different sources: they must
	// spread over all 8 spines (the leaf has 8 uplinks).
	used := map[int]bool{}
	for i := 0; i < 8; i++ {
		route, _, err := c.Reserve(i, 120+i, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		used[route[0]] = true // leaf uplink port == spine choice + 8
	}
	if len(used) != 8 {
		t.Fatalf("flows used %d distinct uplinks, want 8 (load balancing)", len(used))
	}
}

func TestReserveRejectsOversubscription(t *testing.T) {
	c, _ := newController(t, 1.0)
	if _, _, err := c.Reserve(0, 1, 0.7); err != nil {
		t.Fatal(err)
	}
	// Same leaf pair: only one path (local), already at 0.7.
	if _, _, err := c.Reserve(0, 1, 0.5); err == nil {
		t.Fatal("oversubscription accepted")
	}
	// A smaller flow still fits.
	if _, _, err := c.Reserve(0, 1, 0.3); err != nil {
		t.Fatalf("fitting flow rejected: %v", err)
	}
}

func TestReserveHonoursMaxUtil(t *testing.T) {
	c, _ := newController(t, 0.5)
	if _, _, err := c.Reserve(0, 1, 0.4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Reserve(0, 1, 0.2); err == nil {
		t.Fatal("reservation beyond maxUtil accepted")
	}
}

func TestReserveInjectionLinkLimit(t *testing.T) {
	c, _ := newController(t, 1.0)
	// Host 0's injection link caps the sum over all its flows, even when
	// they take disjoint network paths.
	for i := 0; i < 8; i++ {
		if _, _, err := c.Reserve(0, 8+i*8, 0.12); err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
	}
	if _, _, err := c.Reserve(0, 127, 0.1); err == nil {
		t.Fatal("injection link oversubscription accepted")
	}
	if got := c.HostReserved(0); got != units.Bandwidth(0.96) {
		t.Fatalf("HostReserved = %v, want 0.96", got)
	}
}

func TestReserveValidation(t *testing.T) {
	c, _ := newController(t, 1.0)
	if _, _, err := c.Reserve(3, 3, 0.1); err == nil {
		t.Error("flow to self accepted")
	}
	if _, _, err := c.Reserve(0, 1, 0); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, _, err := c.Reserve(0, 1, -0.5); err == nil {
		t.Error("negative bandwidth accepted")
	}
}

func TestReservedAccounting(t *testing.T) {
	c, topo := newController(t, 1.0)
	route, _, err := c.Reserve(0, 127, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Every link of the chosen path carries the reservation.
	hops := findPath(topo, 0, 127, route)
	if hops == nil {
		t.Fatal("route not found in topology")
	}
	for _, h := range hops {
		if got := c.Reserved(h.Switch, h.OutPort); got != 0.25 {
			t.Fatalf("link (%d,%d) reserved %v, want 0.25", h.Switch, h.OutPort, got)
		}
	}
	if got := c.MaxLinkUtilisation(); got != 0.25 {
		t.Fatalf("MaxLinkUtilisation = %v, want 0.25", got)
	}
}

func findPath(topo *topology.FoldedClos, src, dst int, route []int) []topology.Hop {
	for ch := 0; ch < topo.PathCount(src, dst); ch++ {
		hops := topo.Path(src, dst, ch)
		if len(hops) != len(route) {
			continue
		}
		same := true
		for i := range hops {
			if hops[i].OutPort != route[i] {
				same = false
				break
			}
		}
		if same {
			return hops
		}
	}
	return nil
}

func TestBestEffortRoutesSpread(t *testing.T) {
	c, _ := newController(t, 1.0)
	used := map[int]bool{}
	for key := uint64(0); key < 64; key++ {
		route := c.RouteBestEffort(0, 127, key)
		if len(route) != 3 {
			t.Fatalf("route length %d", len(route))
		}
		used[route[0]] = true
	}
	if len(used) < 6 {
		t.Fatalf("64 hashed flows used only %d of 8 uplinks", len(used))
	}
}

func TestBestEffortRouteDeterministic(t *testing.T) {
	c, _ := newController(t, 1.0)
	a := c.RouteBestEffort(5, 99, 42)
	b := c.RouteBestEffort(5, 99, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("best-effort route not deterministic")
		}
	}
}

func TestFullMeshRegulatedWorkloadAdmits(t *testing.T) {
	// The paper's workload: every host reserves 50% of its link (control
	// + multimedia) spread over many destinations. With balanced routing
	// this must fit the full-bisection MIN.
	c, _ := newController(t, 1.0)
	hosts := 128
	perFlow := units.Bandwidth(0.5 / 8)
	for src := 0; src < hosts; src++ {
		for i := 0; i < 8; i++ {
			dst := (src + 1 + i*16) % hosts
			if dst == src {
				dst = (dst + 1) % hosts
			}
			if _, _, err := c.Reserve(src, dst, perFlow); err != nil {
				t.Fatalf("host %d flow %d rejected: %v", src, i, err)
			}
		}
	}
	if u := c.MaxLinkUtilisation(); u > 1.0 {
		t.Fatalf("max utilisation %v > 1", u)
	}
}

func TestReleaseReturnsBandwidth(t *testing.T) {
	c, _ := newController(t, 1.0)
	_, h, err := c.Reserve(0, 1, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if c.ActiveFlows() != 1 {
		t.Fatalf("ActiveFlows = %d, want 1", c.ActiveFlows())
	}
	// The local leaf link is nearly full.
	if _, _, err := c.Reserve(0, 1, 0.5); err == nil {
		t.Fatal("oversubscription accepted before release")
	}
	c.Release(h)
	if c.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d after release", c.ActiveFlows())
	}
	if got := c.HostReserved(0); got != 0 {
		t.Fatalf("HostReserved = %v after release, want 0", got)
	}
	if _, _, err := c.Reserve(0, 1, 0.5); err != nil {
		t.Fatalf("reservation after release rejected: %v", err)
	}
	if res, rej, rel := c.Counts(); res != 2 || rej != 1 || rel != 1 {
		t.Fatalf("Counts = %d reserves, %d rejects, %d releases, want 2, 1, 1", res, rej, rel)
	}
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestReleaseBadHandlePanics(t *testing.T) {
	c, _ := newController(t, 1.0)
	mustPanic(t, "release of never-issued handle", func() { c.Release(42) })
	_, h, err := c.Reserve(0, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	c.Release(h)
	mustPanic(t, "double release", func() { c.Release(h) })
}

// ledger snapshots every observable reservation value: all switch output
// links plus all host injection links. Comparison is byte-exact (==), not
// approximate — churn must restore the ledger bit-for-bit.
func ledger(c *Controller, topo *topology.FoldedClos) []units.Bandwidth {
	var out []units.Bandwidth
	for sw := 0; sw < topo.Switches(); sw++ {
		for p := 0; p < topo.Radix(sw); p++ {
			out = append(out, c.Reserved(sw, p))
		}
	}
	for h := 0; h < topo.Hosts(); h++ {
		out = append(out, c.HostReserved(h))
	}
	return out
}

func TestReleaseRestoresLedgerExactly(t *testing.T) {
	c, topo := newController(t, 1.0)
	// Background load with float-unfriendly bandwidths: repeated
	// adds/subtracts of these values do not round-trip in float64, which is
	// exactly what the canonical-order ledger must absorb.
	bws := []units.Bandwidth{0.1, 1.0 / 3, 0.07, 0.123456789, 0.2}
	for i, bw := range bws {
		if _, _, err := c.Reserve(i, 64+i*7, bw); err != nil {
			t.Fatal(err)
		}
	}
	before := ledger(c, topo)

	// Reserve -> Release must restore the ledger byte-identically...
	_, h, err := c.Reserve(3, 99, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	after := ledger(c, topo)
	c.Release(h)
	restored := ledger(c, topo)
	for i := range before {
		if before[i] != restored[i] {
			t.Fatalf("ledger entry %d not restored: %v != %v", i, restored[i], before[i])
		}
	}
	// ...and Reserve again must land on the identical post-reserve state
	// (same route choice, same sums).
	_, h2, err := c.Reserve(3, 99, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	again := ledger(c, topo)
	for i := range after {
		if after[i] != again[i] {
			t.Fatalf("ledger entry %d differs after re-reserve: %v != %v", i, again[i], after[i])
		}
	}
	// Releasing in the middle of later admissions must still restore
	// exactly: the recompute replays admission order, not release order.
	_, h3, err := c.Reserve(5, 77, 0.11)
	if err != nil {
		t.Fatal(err)
	}
	c.Release(h2)
	c.Release(h3)
	final := ledger(c, topo)
	for i := range before {
		if before[i] != final[i] {
			t.Fatalf("ledger entry %d not restored after interleaved releases: %v != %v",
				i, final[i], before[i])
		}
	}
}

func TestHandlesOnTracksAdmissionOrder(t *testing.T) {
	c, _ := newController(t, 1.0)
	// Same-leaf flows share the single delivery link of host 1: switch 0,
	// port 1.
	_, h1, err := c.Reserve(0, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	_, h2, err := c.Reserve(2, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	hs := c.HandlesOn(0, 1)
	if len(hs) != 2 || hs[0] != h1 || hs[1] != h2 {
		t.Fatalf("HandlesOn = %v, want [%d %d]", hs, h1, h2)
	}
	c.Release(h1)
	if hs := c.HandlesOn(0, 1); len(hs) != 1 || hs[0] != h2 {
		t.Fatalf("HandlesOn after release = %v, want [%d]", hs, h2)
	}
	if got := c.LinkLimit(0, 1); got != 1.0 {
		t.Fatalf("LinkLimit = %v, want 1.0", got)
	}
	c.DerateLink(0, 1, 0.25)
	if got := c.LinkLimit(0, 1); got != 0.25 {
		t.Fatalf("derated LinkLimit = %v, want 0.25", got)
	}
}

func TestDerateLinkSteersReservations(t *testing.T) {
	c, topo := newController(t, 1.0)
	// Derate the uplink of leaf 0 toward spine 0 to 10% capacity: new
	// cross-leaf flows from host 0 must avoid spine 0 until the healthy
	// spines are more utilised.
	c.DerateLink(0, topo.Down+0, 0.1)
	for i := 0; i < 7; i++ {
		route, _, err := c.Reserve(0, 120+i, 0.12)
		if err != nil {
			t.Fatal(err)
		}
		if route[0] == topo.Down+0 {
			t.Fatalf("flow %d routed onto the derated uplink", i)
		}
	}
	// A flow exceeding the derated capacity can never use that link, even
	// when every other uplink is full.
	c2, topo2 := newController(t, 1.0)
	c2.DerateLink(0, topo2.Down+0, 0.1)
	for s := 1; s < topo2.Up; s++ {
		// Saturate every healthy uplink of leaf 0, one flow per source
		// host so injection links do not bind first. The balancer
		// spreads the equal flows over the healthy spines.
		if _, _, err := c2.Reserve(s, 120+s, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c2.Reserve(0, 120, 0.5); err == nil {
		t.Fatal("reservation above derated capacity accepted")
	}
	// But a small-enough flow still fits on the derated link. (Host 120
	// is the one leaf-15 endpoint whose delivery link the saturating
	// flows left free.)
	if _, _, err := c2.Reserve(0, 120, 0.05); err != nil {
		t.Fatalf("small flow rejected from derated link: %v", err)
	}
}

func TestDerateLinkValidation(t *testing.T) {
	c, _ := newController(t, 1.0)
	for _, bad := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DerateLink(%v) did not panic", bad)
				}
			}()
			c.DerateLink(0, 0, bad)
		}()
	}
}
