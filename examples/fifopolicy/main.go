// Fifopolicy: a custom scheduling policy implemented out of tree.
//
// The policy subsystem (DESIGN.md §14) lets a downstream user swap the
// simulator's scheduling decisions without touching internal/. This
// program defines the smallest interesting custom policy — FIFO-within-
// class — entirely against the public deadlineqos facade:
//
//   - host injection queues hold packets in arrival order instead of the
//     default deadline order (the host-side EDF sort is switched off),
//   - the NIC pick and the switch arbiters are inherited unchanged from
//     the default policy by embedding it — a custom policy overrides only
//     the decisions it cares about.
//
// On the 2-VC architectures, control and multimedia share the regulated
// VC, so the host queue is where a near-deadline control packet overtakes
// queued multimedia. Running both policies on the same saturated
// configuration isolates that sort: with FIFO staging control serves
// strictly behind earlier multimedia arrivals (its tail latency rises),
// while multimedia — which EDF deprioritises whenever control is waiting —
// misses slightly fewer deadlines. The sort is the mechanism behind the
// paper's preference ordering, and a one-method policy turns it off.
//
//	go run ./examples/fifopolicy
package main

import (
	"fmt"

	"deadlineqos"
)

// fifoWithinClass stages each host VC in arrival order. Embedding the
// default policy inherits PickInject and NewArbiter, so the data path
// downstream of the host queues is untouched — the comparison isolates
// the host-side EDF sort.
type fifoWithinClass struct {
	deadlineqos.Policy
}

func (fifoWithinClass) Name() string { return "fifo-within-class" }

func (fifoWithinClass) NewHostQueue(a deadlineqos.Arch, vc deadlineqos.VC) deadlineqos.HostQueue {
	return deadlineqos.NewHostFIFOQueue(deadlineqos.PolicyHostQueueCap)
}

func run(pol deadlineqos.Policy) (*deadlineqos.Results, error) {
	cfg := deadlineqos.SmallConfig()
	cfg.Arch = deadlineqos.Advanced2VC
	cfg.Load = 1.0 // saturation: the regulated host queues actually back up
	cfg.Policy = pol
	return deadlineqos.Run(cfg)
}

func main() {
	policies := []deadlineqos.Policy{
		deadlineqos.DefaultPolicy(),
		fifoWithinClass{Policy: deadlineqos.DefaultPolicy()},
	}

	fmt.Printf("%-18s  %11s  %11s  %11s  %8s\n",
		"policy", "ctl avg", "ctl p99", "mm p99", "mm miss")
	for _, pol := range policies {
		res, err := run(pol)
		if err != nil {
			fmt.Println("run:", err)
			return
		}
		ctl := &res.PerClass[deadlineqos.Control]
		mm := &res.PerClass[deadlineqos.Multimedia]
		fmt.Printf("%-18s  %11v  %11v  %11v  %7.2f%%\n",
			res.Policy,
			deadlineqos.Time(ctl.PacketLatency.Mean()),
			ctl.LatencyHist.Quantile(0.99),
			mm.LatencyHist.Quantile(0.99),
			100*res.MissRate(deadlineqos.Multimedia))
	}

	fmt.Println("\nSame network, same arbiters, same traffic — only the host")
	fmt.Println("queues differ. FIFO staging keeps control behind earlier")
	fmt.Println("multimedia arrivals in the shared regulated VC, so control's")
	fmt.Println("tail latency rises; multimedia, no longer overtaken, misses")
	fmt.Println("slightly fewer deadlines. That trade is the host-side EDF sort.")
}
