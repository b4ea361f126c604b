// Integration tests for the survivable admission control plane: per-pod
// delegate CACs with capacity leases, deterministic failover after a
// CAC-killing fault, and bounded-control-queue overload shedding. Like
// session_test.go they build full networks and assert on the reported
// Results, covering the lease/failover protocol end to end through real
// switches, links, and queueing.
package session_test

import (
	"testing"

	"deadlineqos/internal/faults"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/session"
	"deadlineqos/internal/units"
)

func TestDelegatedLifecycle(t *testing.T) {
	cfg := base()
	cfg.Sessions = &session.Config{
		InterArrival: 300 * units.Microsecond,
		HoldMean:     units.Millisecond,
		Delegation:   true,
		LocalFrac:    0.6,
	}
	res := run(t, cfg)
	s, cp := res.Sessions, res.ControlPlane
	if cp == nil || !cp.Delegated {
		t.Fatalf("no delegated control-plane summary: %+v", cp)
	}
	if cp.Pods == 0 || cp.Delegates == 0 {
		t.Fatalf("no pods provisioned: pods=%d delegates=%d", cp.Pods, cp.Delegates)
	}
	if cp.LeaseGrants < uint64(cp.Pods) {
		t.Errorf("lease grants %d below pod count %d", cp.LeaseGrants, cp.Pods)
	}
	// Intra-pod setups are admitted one hop away; inter-pod setups
	// escalate to the root. Both paths must be exercised.
	if cp.LocalGrants == 0 {
		t.Fatalf("no delegate admitted locally: %+v", cp)
	}
	if cp.Escalated == 0 {
		t.Errorf("no setup escalated to the root: %+v", cp)
	}
	if s.Accepted < cp.LocalGrants {
		t.Errorf("accepted %d < local grants %d (delegate grants must count)", s.Accepted, cp.LocalGrants)
	}
	if s.Granted == 0 || s.Finished == 0 {
		t.Fatalf("delegated sessions did not run: granted=%d finished=%d", s.Granted, s.Finished)
	}
	if s.Granted > s.Accepted+s.DupSetups {
		t.Errorf("granted %d > accepted %d + dup re-grants %d", s.Granted, s.Accepted, s.DupSetups)
	}
	// No faults: nothing promoted, reclaimed, or replayed.
	if cp.Promotions != 0 || cp.Reclaims != 0 || cp.FailoverReplays != 0 {
		t.Errorf("failover activity without faults: %+v", cp)
	}
}

func TestDelegateFailover(t *testing.T) {
	cfg := base()
	cfg.Sessions = &session.Config{
		InterArrival: 200 * units.Microsecond,
		HoldMean:     units.Millisecond,
		Delegation:   true,
		LocalFrac:    0.8,
	}
	scfg := cfg.Sessions.WithDefaults()
	// Cut the primary delegate's attachment cable in one pod and the
	// standby's too in another: the first pod must fail over to its
	// standby, the second must fall back to the root.
	pods := session.PodPlan(cfg.Topology, scfg.Manager)
	var withStandby *session.Pod
	for i := range pods {
		if pods[i].Primary >= 0 && pods[i].Standby >= 0 {
			withStandby = &pods[i]
			break
		}
	}
	if withStandby == nil {
		t.Fatal("topology yields no pod with a standby")
	}
	plan := &faults.Plan{}
	sw, port := cfg.Topology.HostPort(withStandby.Primary)
	plan.Events = append(plan.Events,
		faults.Event{At: 1200 * units.Microsecond, Link: faults.LinkID{Switch: sw, Port: port}, Kind: faults.PortDown})
	sw2, port2 := cfg.Topology.HostPort(withStandby.Standby)
	plan.Events = append(plan.Events,
		faults.Event{At: 1800 * units.Microsecond, Link: faults.LinkID{Switch: sw2, Port: port2}, Kind: faults.PortDown})
	cfg.Faults = plan
	res := run(t, cfg)
	cp := res.ControlPlane
	if cp.Promotions == 0 {
		t.Fatalf("primary CAC death promoted no standby: %+v", cp)
	}
	if cp.FailoverCount == 0 || cp.FailoverP99 <= 0 {
		t.Errorf("no failover TTR measured: count=%d p99=%v", cp.FailoverCount, cp.FailoverP99)
	}
	if cp.Reclaims == 0 {
		t.Errorf("standby death reclaimed no lease: %+v", cp)
	}
	if cp.Retargets == 0 {
		t.Errorf("no client was retargeted: %+v", cp)
	}
	// Admission keeps working after both faults.
	if res.Sessions.Granted == 0 {
		t.Fatalf("no sessions granted across the outage")
	}
}

func TestCtlQueueShedding(t *testing.T) {
	cfg := base()
	cfg.Sessions = &session.Config{
		InterArrival: 40 * units.Microsecond,
		HoldMean:     units.Millisecond,
		CtlService:   5 * units.Microsecond,
		CtlQueueCap:  2,
	}
	res := run(t, cfg)
	s, cp := res.Sessions, res.ControlPlane
	// 16 hosts at one setup per 40us against a 5us service time saturate
	// the root's control queue: overload must shed deterministically, and
	// shed setups must still terminate (retry-with-backoff, then
	// downgrade) — run() already enforces the liveness watchdog via
	// CheckInvariants.
	if cp.Shed == 0 {
		t.Fatalf("saturated control queue shed nothing: %+v", cp)
	}
	if s.RejectsSeen == 0 || s.Retries == 0 {
		t.Errorf("shed rejects did not drive retries: rejects=%d retries=%d", s.RejectsSeen, s.Retries)
	}
	if s.Granted == 0 {
		t.Fatalf("shedding starved admission entirely")
	}
}

func TestLeaseGrowAndReturn(t *testing.T) {
	cfg := base()
	cfg.Sessions = &session.Config{
		InterArrival: 150 * units.Microsecond,
		HoldMean:     600 * units.Microsecond,
		Delegation:   true,
		LocalFrac:    1.0,
		LeaseFrac:    0.1,
		LeaseStep:    0.2,
	}
	res := run(t, cfg)
	cp := res.ControlPlane
	// A 10% initial lease under all-local load must fill up and trigger
	// growth requests; the root answers every request (grant or denial
	// re-grant), so grants exceed the bootstrap count. A denial re-grant
	// counts as a grant too, so only a request not denied shows growth.
	if cp.LeaseRequests == 0 {
		t.Fatalf("exhausted lease requested no growth: %+v", cp)
	}
	if cp.LeaseGrants <= uint64(cp.Pods) {
		t.Errorf("no lease growth granted: grants=%d pods=%d", cp.LeaseGrants, cp.Pods)
	}
	if cp.LeaseDenied >= cp.LeaseRequests {
		t.Errorf("the root denied every lease request: denied=%d requests=%d", cp.LeaseDenied, cp.LeaseRequests)
	}
	if cp.LocalGrants == 0 {
		t.Fatalf("no local admissions under all-local load: %+v", cp)
	}
}

func TestPodFlowIDPlan(t *testing.T) {
	ids := map[packet.FlowID]string{}
	add := func(name string, id packet.FlowID) {
		if prev, dup := ids[id]; dup {
			t.Fatalf("flow id collision: %s == %s (%#x)", name, prev, id)
		}
		ids[id] = name
		if !session.IsSignalling(id) || session.IsSessionData(id) {
			t.Errorf("%s (%#x) misclassified", name, id)
		}
	}
	for h := 0; h < 64; h++ {
		add("up", session.SigUp(h))
		add("down", session.SigDown(h))
		add("pod-up", session.SigPodUp(h))
		add("pod-alt-up", session.SigPodAltUp(h))
		add("pod-down", session.SigPodDown(h))
		add("pod-alt-down", session.SigPodAltDown(h))
	}
}
