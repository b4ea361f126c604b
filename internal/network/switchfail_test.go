package network

import (
	"strings"
	"testing"

	"deadlineqos/internal/faults"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/policy"
	"deadlineqos/internal/session"
	"deadlineqos/internal/units"
)

// switchFailConfig builds the acceptance scenario for switch failure with
// route repair: a switch outage and a port cut land mid-run on a fabric
// carrying static traffic and dynamic sessions, with the reliability layer
// recovering the losses.
func switchFailConfig(shards int) Config {
	cfg := chaosBase()
	cfg.Shards = shards
	cfg.Sessions = &session.Config{
		InterArrival: 300 * units.Microsecond,
		HoldMean:     1500 * units.Microsecond,
	}
	// SmallConfig's folded Clos has leaves 0..3 and spines 4..7: killing
	// spine 4 leaves three alternate spines for route repair, and the port
	// cut severs leaf 0's uplink to spine 5.
	cfg.Faults = &faults.Plan{
		Seed: 7,
		Events: []faults.Event{
			{At: 2 * units.Millisecond, Link: faults.SwitchID(4), Kind: faults.SwitchDown},
			{At: 4 * units.Millisecond, Link: faults.SwitchID(4), Kind: faults.SwitchUp},
			{At: 5 * units.Millisecond, Link: faults.LinkID{Switch: 0, Port: 5}, Kind: faults.PortDown},
			{At: 7 * units.Millisecond, Link: faults.LinkID{Switch: 0, Port: 5}, Kind: faults.PortUp},
		},
	}
	return cfg
}

// TestSwitchFailureRecovery is the tentpole acceptance check: a
// SwitchDown/SwitchUp scenario must keep the conservation books balanced
// with the dead switch's discarded packets accounted, reroute at least one
// reserved flow through the session manager, repair static routes, and
// report availability.
func TestSwitchFailureRecovery(t *testing.T) {
	res, err := Run(switchFailConfig(1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.Conservation.Check(); err != nil {
		t.Fatalf("conservation: %v\n%v", err, res.Conservation)
	}
	av := res.Availability
	if av == nil {
		t.Fatal("topological fault plan produced no Availability")
	}
	if av.SwitchDowns != 1 || av.SwitchUps != 1 || av.PortDowns != 1 {
		t.Fatalf("event counts: %+v", av)
	}
	if want := 2 * units.Millisecond; av.Downtime != want {
		t.Fatalf("downtime %v, want %v", av.Downtime, want)
	}
	if res.Conservation.DroppedInSwitch == 0 {
		t.Fatalf("dead switch discarded nothing: %v", res.Conservation)
	}
	if av.FlowsRerouted == 0 {
		t.Fatalf("no static flow rerouted: %v", av)
	}
	if av.SessionsRevoked == 0 || av.SessionsRerouted == 0 {
		t.Fatalf("no reserved session rerouted: %v", av)
	}
	if av.RepairCount == 0 || av.RepairP99 < av.RepairP50 {
		t.Fatalf("repair latency distribution empty or inverted: %v", av)
	}
	if res.Sessions.Granted == 0 || res.Conservation.DeliveredUnique == 0 {
		t.Fatal("scenario carried no session traffic")
	}
}

// TestAuditInvariantsAfterFailure runs the failure scenario and then
// audits the structural invariants the soak harness relies on.
func TestAuditInvariantsAfterFailure(t *testing.T) {
	n, err := New(switchFailConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	res := n.Run()
	if err := res.Conservation.Check(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	if err := n.AuditInvariants(); err != nil {
		t.Fatalf("invariant audit: %v", err)
	}
}

// TestPacketPoolsBalanceAtEveryEndOfLife drives all six points where a
// packet's life ends — delivery, CRC drop, duplicate drop, link loss,
// switch drop and NIC eviction — on two shards, so packets also die on a
// shard other than the one that emitted them, and checks that the audit's
// two censuses hold: records against the NICs' staged backlog, packets
// against the fabric. NIC eviction ends a record, which never became a
// packet. One record, then one packet, returned twice must each fail it.
func TestPacketPoolsBalanceAtEveryEndOfLife(t *testing.T) {
	cfg := switchFailConfig(2)
	cfg.Load = 1.0
	cfg.Policy = policy.ValueDrop(0, false)
	cfg.Faults.DefaultBER = 1e-6
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := n.Run()
	c := res.Conservation
	if err := c.Check(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	if c.DeliveredUnique == 0 || c.ArrivedCorrupt == 0 || c.ArrivedDup == 0 ||
		c.LostOnLink == 0 || c.DroppedInSwitch == 0 || c.EvictedAtNIC == 0 {
		t.Fatalf("scenario misses an end of life: %v", c)
	}
	if err := n.AuditInvariants(); err != nil {
		t.Fatalf("invariant audit: %v", err)
	}
	n.shards[1].records.Put(new(packet.Staged))
	if err := n.AuditInvariants(); err == nil || !strings.Contains(err.Error(), "record") {
		t.Fatalf("audit passed with one record returned that no free list handed out (%v)", err)
	}
	n.shards[1].records.Get() // rebalance the records
	if err := n.AuditInvariants(); err != nil {
		t.Fatalf("invariant audit after rebalancing the records: %v", err)
	}
	n.shards[1].pool.Put(new(packet.Packet))
	if err := n.AuditInvariants(); err == nil || !strings.Contains(err.Error(), "packet pools") {
		t.Fatalf("audit passed with one packet returned that no pool handed out (%v)", err)
	}
}
