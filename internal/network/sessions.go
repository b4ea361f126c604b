package network

import (
	"fmt"

	"deadlineqos/internal/hostif"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/session"
	"deadlineqos/internal/xrand"
)

// provisionSessions wires the dynamic session subsystem (no-op unless
// cfg.Sessions is set): signalling flows between every client host and the
// manager, the centralised CAC endpoint on the manager's shard, and one
// session client per remaining host. The fault replay (replay.go) later
// feeds every CAC endpoint the plan's derates and switch and port events.
//
// With scfg.Delegation, each pod (the hosts of one leaf switch) also gets
// a primary and, where the pod is large enough, a standby delegate CAC
// holding a revocable capacity lease over the pod's links: intra-pod
// setups are admitted one hop away, everything else escalates to the
// root, and a fault that kills a CAC host triggers the root's
// deterministic failover (standby promotion or lease reclaim).
//
// The session random stream is split off after provisionFlows consumed
// its splits, so enabling sessions leaves all static traffic streams
// byte-identical.
func (n *Network) provisionSessions(rng *xrand.Rand) error {
	if n.cfg.Sessions == nil {
		return nil
	}
	scfg := n.cfg.Sessions.WithDefaults()
	n.sessCfg = scfg
	hosts := n.topo.Hosts()
	mgr := scfg.Manager

	for _, sh := range n.shards {
		sh.sess = session.NewCounters()
	}

	// Signalling flows, one per direction per client host: Control class
	// with BWavg = link bandwidth — the paper's maximum-priority deadline
	// stamp for in-band management traffic (§3.1). Routes are fixed
	// hash-balanced paths; no reservation (Control is not regulated here,
	// its priority comes from the deadline rule).
	for h := 0; h < hosts; h++ {
		if h == mgr {
			continue
		}
		up := session.SigUp(h)
		n.hosts[h].AddFlow(&hostif.Flow{
			ID: up, Class: packet.Control, Src: h, Dst: mgr,
			Route: n.adm.RouteBestEffort(h, mgr, uint64(up)),
			Mode:  hostif.ByBandwidth, BW: n.cfg.LinkBW,
		})
		n.registerRepairFlow(h, up, h, mgr)
		down := session.SigDown(h)
		n.hosts[mgr].AddFlow(&hostif.Flow{
			ID: down, Class: packet.Control, Src: mgr, Dst: h,
			Route: n.adm.RouteBestEffort(mgr, h, uint64(down)),
			Mode:  hostif.ByBandwidth, BW: n.cfg.LinkBW,
		})
		n.registerRepairFlow(mgr, down, mgr, h)
	}

	// Delegated control plane: plan the pods and build the delegate
	// endpoints before the manager so the root knows its delegates.
	var pods []session.Pod
	var delegates []*session.Delegate
	podOf := make(map[int]int) // host -> index into pods
	horizon := n.cfg.WarmUp + n.cfg.Measure
	if scfg.Delegation {
		pods = session.PodPlan(n.topo, mgr)
		for pi, p := range pods {
			for _, h := range p.Hosts {
				podOf[h] = pi
			}
			for _, role := range []struct {
				cac     int
				standby bool
			}{{p.Primary, false}, {p.Standby, true}} {
				if role.cac < 0 {
					continue
				}
				// Pod signalling flows: one up/down pair between every other
				// pod host and this CAC, all single-hop through the leaf.
				for _, h := range p.Hosts {
					if h == role.cac || h == mgr {
						continue
					}
					up, down := session.SigPodUp(h), session.SigPodDown(h)
					if role.standby {
						up, down = session.SigPodAltUp(h), session.SigPodAltDown(h)
					}
					n.hosts[h].AddFlow(&hostif.Flow{
						ID: up, Class: packet.Control, Src: h, Dst: role.cac,
						Route: n.adm.RouteBestEffort(h, role.cac, uint64(up)),
						Mode:  hostif.ByBandwidth, BW: n.cfg.LinkBW,
					})
					n.registerRepairFlow(h, up, h, role.cac)
					n.hosts[role.cac].AddFlow(&hostif.Flow{
						ID: down, Class: packet.Control, Src: role.cac, Dst: h,
						Route: n.adm.RouteBestEffort(role.cac, h, uint64(down)),
						Mode:  hostif.ByBandwidth, BW: n.cfg.LinkBW,
					})
					n.registerRepairFlow(role.cac, down, role.cac, h)
				}
				sh := n.shards[n.hostShard[role.cac]]
				d, err := session.NewDelegate(session.DelegateConfig{
					Host: n.hosts[role.cac], Eng: sh.eng, Cfg: scfg,
					Cnt: sh.sess, Pod: p, Standby: role.standby,
					Topo: n.topo, LinkBW: n.cfg.LinkBW,
					RouteBE: n.adm.RouteBestEffort,
					WarmUp:  n.cfg.WarmUp, Horizon: horizon,
				})
				if err != nil {
					return fmt.Errorf("network: pod %d delegate: %w", p.Leaf, err)
				}
				delegates = append(delegates, d)
			}
		}
	}
	n.sessDelegates = delegates
	delegateAt := make(map[int]*session.Delegate, len(delegates))
	for _, d := range delegates {
		delegateAt[d.HostID()] = d
	}

	// The root CAC endpoint lives on the manager host's shard; every root
	// admission mutation happens in its event handlers, totally ordered by
	// the manager's single ejection link — identical at any shard count.
	mgrShard := n.shards[n.hostShard[mgr]]
	m := session.NewManager(session.ManagerConfig{
		Host: n.hosts[mgr], Eng: mgrShard.eng, Adm: n.adm, Cfg: scfg,
		Cnt: mgrShard.sess, Hosts: hosts, LinkBW: n.cfg.LinkBW,
		WarmUp: n.cfg.WarmUp, Horizon: horizon,
		Pods: pods, Delegates: delegates,
	})
	n.sessMgr = m
	n.hosts[mgr].SetCtlHandler(m.HandleCtl)
	n.cacs = append(n.cacs, shardCAC{n.hostShard[mgr], m})
	for _, d := range delegates {
		n.cacs = append(n.cacs, shardCAC{n.hostShard[d.HostID()], d})
	}
	if scfg.Delegation {
		// Initial capacity leases ride the signalling flows from t=0.
		mgrShard.eng.At(0, m.Bootstrap)
	}

	// One client per non-manager host, each on a private split of the
	// session stream, keyed by host index. In delegated mode a client's
	// first CAC target is its pod primary; hosts that themselves run a
	// delegate share the wire with it through session.Dispatch.
	sessRng := rng.Split(0x5e55)
	for h := 0; h < hosts; h++ {
		if h == mgr {
			continue
		}
		cc := session.ClientConfig{
			Host: n.hosts[h], Eng: n.shards[n.hostShard[h]].eng,
			Rng: sessRng.Split(uint64(h) + 1),
			Cfg: scfg, Hosts: hosts, Cnt: n.shards[n.hostShard[h]].sess,
			RouteBE:    n.adm.RouteBestEffort,
			PodPrimary: -1, PodStandby: -1,
		}
		if pi, ok := podOf[h]; ok && scfg.Delegation {
			p := pods[pi]
			if p.Primary >= 0 && p.Primary != h {
				cc.PodPrimary = p.Primary
			}
			if p.Standby >= 0 && p.Standby != h {
				cc.PodStandby = p.Standby
			}
			for _, peer := range p.Hosts {
				if peer != h {
					cc.PodPeers = append(cc.PodPeers, peer)
				}
			}
		}
		cl := session.NewClient(cc)
		if d := delegateAt[h]; d != nil {
			n.hosts[h].SetCtlHandler(session.Dispatch(cl, d))
		} else {
			n.hosts[h].SetCtlHandler(cl.HandleCtl)
		}
		n.sessClients = append(n.sessClients, cl)
		n.sources = append(n.sources, cl)
	}
	return nil
}
