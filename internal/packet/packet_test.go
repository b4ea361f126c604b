package packet

import (
	"testing"
	"testing/quick"

	"deadlineqos/internal/units"
)

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		Control:    "Control",
		Multimedia: "Multimedia",
		BestEffort: "Best-effort",
		Background: "Background",
		Class(9):   "Class(9)",
	}
	for c, s := range want {
		if got := c.String(); got != s {
			t.Errorf("%d.String() = %q, want %q", c, got, s)
		}
	}
}

func TestRegulatedClasses(t *testing.T) {
	if !Control.Regulated() || !Multimedia.Regulated() {
		t.Error("Control and Multimedia must be regulated")
	}
	if BestEffort.Regulated() || Background.Regulated() {
		t.Error("Best-effort and Background must not be regulated")
	}
}

func TestVCOf(t *testing.T) {
	if VCOf(Control) != VCRegulated || VCOf(Multimedia) != VCRegulated {
		t.Error("regulated classes must map to VCRegulated")
	}
	if VCOf(BestEffort) != VCBestEffort || VCOf(Background) != VCBestEffort {
		t.Error("best-effort classes must map to VCBestEffort")
	}
	if VCRegulated.String() == VCBestEffort.String() {
		t.Error("VC names must differ")
	}
}

func TestRouteTraversal(t *testing.T) {
	p := &Packet{ID: 1, Route: []int{3, 7, 1}}
	var ports []int
	for i := 0; i < 3; i++ {
		ports = append(ports, p.NextPort())
		p.Advance()
	}
	if ports[0] != 3 || ports[1] != 7 || ports[2] != 1 {
		t.Fatalf("route traversal = %v, want [3 7 1]", ports)
	}
}

func TestRouteExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted route did not panic")
		}
	}()
	p := &Packet{Route: []int{1}, Hop: 1}
	p.NextPort()
}

func TestTTDRoundTripNoSkew(t *testing.T) {
	p := &Packet{Deadline: 5000}
	p.PackTTD(1200) // leaves sender at local time 1200
	if p.TTD != 3800 {
		t.Fatalf("TTD = %v, want 3800", p.TTD)
	}
	p.UnpackTTD(1210) // arrives 10 cycles later, same clock domain
	if p.Deadline != 5010 {
		t.Fatalf("reconstructed deadline = %v, want 5010", p.Deadline)
	}
}

func TestTTDAbsorbsClockSkew(t *testing.T) {
	// The receiving node's clock is 500 cycles ahead; the reconstructed
	// deadline must be expressed in the receiver's time base with the
	// same remaining slack.
	p := &Packet{Deadline: 5000}
	senderNow := units.Time(1000)
	p.PackTTD(senderNow) // 4000 cycles of slack remain
	receiverNow := units.Time(1010 + 500)
	p.UnpackTTD(receiverNow)
	slack := p.Deadline - receiverNow
	if slack != 4000 {
		t.Fatalf("slack after skewed hop = %v, want 4000", slack)
	}
}

func TestTTDNegativeSlack(t *testing.T) {
	// A packet past its deadline must keep a negative TTD, not wrap.
	p := &Packet{Deadline: 100}
	p.PackTTD(250)
	if p.TTD != -150 {
		t.Fatalf("TTD = %v, want -150", p.TTD)
	}
	p.UnpackTTD(300)
	if p.Deadline != 150 {
		t.Fatalf("deadline = %v, want 150", p.Deadline)
	}
}

func TestTTDSlackInvariant(t *testing.T) {
	// Property (§3.3): across any chain of hops with arbitrary per-node
	// skews, the slack reconstructed at arrival equals the slack at
	// departure — node clock skew cancels out entirely. (Time spent on
	// the wire does NOT decrement slack: the paper's scheme stamps TTD at
	// departure and reconstructs at arrival, so each hop inflates the
	// absolute deadline by the wire latency. The paper accepts this
	// because base latency in these networks is negligible against
	// deadlines; with zero dwell time the end-to-end slack is unchanged.)
	prop := func(slack0 int32, hops []int8, skews []int8) bool {
		p := &Packet{}
		base := units.Time(10_000_000)
		skew := func(i int) units.Time {
			if len(skews) == 0 {
				return 0
			}
			return units.Time(skews[i%len(skews)]) * 100
		}
		now := base
		local := now + skew(0)
		p.Deadline = local + units.Time(slack0)
		for i, h := range hops {
			hop := units.Time(uint8(h)) + 1 // 1..256 cycles per hop
			p.PackTTD(now + skew(i))
			now += hop
			p.UnpackTTD(now + skew(i+1))
		}
		gotSlack := p.Deadline - (now + skew(len(hops)))
		return gotSlack == units.Time(slack0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClockSkew(t *testing.T) {
	base := units.Time(1000)
	c := &Clock{Base: func() units.Time { return base }, Skew: -30}
	if got := c.Now(); got != 970 {
		t.Fatalf("skewed clock Now() = %v, want 970", got)
	}
	base = 2000
	if got := c.Now(); got != 1970 {
		t.Fatalf("skewed clock Now() = %v, want 1970", got)
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{ID: 7, Flow: 3, Class: Control, Src: 1, Dst: 2, Size: 128, Deadline: 99, Seq: 5}
	s := p.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	for _, want := range []string{"id=7", "flow=3", "Control", "1->2", "seq=5"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
