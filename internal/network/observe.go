// Periodic telemetry probes: a recurring engine event walks every switch
// port on Config.ProbeInterval and appends occupancy, credit, take-over,
// order-error and link-utilization samples to the run's trace.Telemetry,
// plus one engine-progress sample per tick.
//
// Probes are strictly read-only: they never mutate simulator state, and
// the recurring event's FIFO tie-break slot cannot reorder other events,
// so enabling probing does not change a run's packet-level outcome. In a
// sharded run each shard probes only the switches it owns, on its own
// engine (a probe may only touch state of its own shard); Run merges the
// per-shard port series back into the sequential (time, switch, port)
// order, so the merged series is identical at every shard count. Engine
// samples are inherently per-engine and are excluded from that guarantee.

package network

import (
	"slices"

	"deadlineqos/internal/faults"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
)

// portKey addresses one switch port in the prober's delta maps.
type portKey struct{ sw, port int }

// prober holds the previous-probe counter values needed to turn the
// cumulative switch/link counters into per-interval rates. Each shard has
// its own prober; the delta maps are keyed per port, so splitting them
// across shards leaves every computed rate unchanged.
type prober struct {
	n          *Network
	shard      int
	sh         *netShard
	prevTO     map[portKey]uint64
	prevOE     map[portKey]uint64
	prevBusy   map[portKey]units.Time
	prevEvents uint64
}

// startProbes arms one recurring probe event per shard when probing is
// configured.
func (n *Network) startProbes() {
	iv := n.cfg.ProbeInterval
	if iv <= 0 {
		return
	}
	horizon := n.cfg.WarmUp + n.cfg.Measure
	for si, sh := range n.shards {
		sh.telemetry = &trace.Telemetry{Interval: iv}
		pr := &prober{
			n:        n,
			shard:    si,
			sh:       sh,
			prevTO:   make(map[portKey]uint64),
			prevOE:   make(map[portKey]uint64),
			prevBusy: make(map[portKey]units.Time),
		}
		eng := sh.eng
		var tick func()
		tick = func() {
			pr.sample(eng.Now())
			if eng.Now()+iv <= horizon {
				eng.After(iv, tick)
			}
		}
		eng.After(iv, tick)
	}
}

// sample appends one probe of every owned switch port and of the shard's
// engine to the shard's telemetry series.
func (p *prober) sample(t units.Time) {
	first := p.sh.telemetry.Engine == nil
	secs := float64(p.sh.telemetry.Interval) / 1e9
	for sw, s := range p.n.switches {
		if p.n.swShard[sw] != p.shard {
			continue
		}
		for port := 0; port < p.n.topo.Radix(sw); port++ {
			pt := s.PortTelemetry(port)
			smp := trace.PortSample{
				T: t, Switch: sw, Port: port,
				InPackets: pt.InPackets, InBytes: pt.InBytes,
				OutPackets: pt.OutPackets, OutBytes: pt.OutBytes,
				TakeOvers: pt.TakeOvers, OrderErrors: pt.OrderErrors,
			}
			key := portKey{sw, port}
			smp.TakeOverRate = float64(pt.TakeOvers-p.prevTO[key]) / secs
			smp.OrderErrRate = float64(pt.OrderErrors-p.prevOE[key]) / secs
			p.prevTO[key] = pt.TakeOvers
			p.prevOE[key] = pt.OrderErrors
			// The port's outgoing link is owned by this switch's shard, so
			// reading its sender-side counters stays shard-local.
			if l := p.n.linkByID[faults.LinkID{Switch: sw, Port: port}]; l != nil {
				var credits units.Size
				for vc := 0; vc < packet.NumVCs; vc++ {
					credits += l.Credits(packet.VC(vc))
				}
				smp.CreditBytes = credits
				busy := l.TxBusyTime()
				// Serialisation time is charged whole at Send, so a probe
				// landing mid-packet may report slightly above 1.
				smp.LinkUtilization = float64(busy-p.prevBusy[key]) / float64(p.sh.telemetry.Interval)
				p.prevBusy[key] = busy
			}
			p.sh.telemetry.Ports = append(p.sh.telemetry.Ports, smp)
		}
	}
	// Session probes, one row per CAC entity, each on the shard owning the
	// entity's host: every sampled value (session tables, reserved sums,
	// the entity's own cumulative counters) is written exclusively by that
	// shard's events, so the merged (T, Pod, Host)-sorted series is
	// identical at every shard count. Shard counters are deliberately NOT
	// sampled here — their composition depends on the shard layout.
	if m := p.n.sessMgr; m != nil && p.n.hostShard[p.n.sessCfg.Manager] == p.shard {
		p.sh.telemetry.Sessions = append(p.sh.telemetry.Sessions, trace.SessionSample{
			T: t, Pod: -1, Host: p.n.sessCfg.Manager,
			Active: m.ActiveSessions(), ReservedBW: m.ReservedNow(),
			Accepted: m.AcceptedCount(), Rejected: m.RejectedCount(),
			Revoked: m.RevokedCount(), QueueDepth: m.QueueDepth(),
			Shed: m.ShedCount(),
		})
	}
	for _, d := range p.n.sessDelegates {
		if p.n.hostShard[d.HostID()] != p.shard {
			continue
		}
		p.sh.telemetry.Sessions = append(p.sh.telemetry.Sessions, trace.SessionSample{
			T: t, Pod: d.PodLeaf(), Host: d.HostID(),
			Active: d.ActiveSessions(), ReservedBW: d.ReservedNow(),
			Accepted: d.AcceptedCount(), Revoked: d.RevokedCount(),
			LeaseFrac: d.LeaseFrac(), LeaseUtil: d.LeaseUtil(),
			QueueDepth: d.QueueDepth(), Shed: d.ShedCount(),
		})
	}
	ev := p.sh.eng.Fired()
	p.sh.telemetry.Engine = append(p.sh.telemetry.Engine, trace.EngineSample{
		T: t, Events: ev, Pending: p.sh.eng.Pending(),
		EventRate: float64(ev-p.prevEvents) / secs,
	})
	p.prevEvents = ev
	if first {
		// Every tick appends the rows this one did, so the ticks left to
		// the horizon size each series once.
		tel := p.sh.telemetry
		left := int((p.n.cfg.WarmUp + p.n.cfg.Measure - t) / tel.Interval)
		tel.Ports = slices.Grow(tel.Ports, left*len(tel.Ports))
		tel.Engine = slices.Grow(tel.Engine, left)
		tel.Sessions = slices.Grow(tel.Sessions, left*len(tel.Sessions))
	}
	// Refresh the shard's gauges and publish its metrics snapshot for the
	// live scrape server (no-op without a metrics registry).
	p.n.publishMetrics(p.shard, t)
}
