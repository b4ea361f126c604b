// Collective: an MPI-style ring exchange (the parallel-application traffic
// the paper's introduction motivates) sharing the network with video and
// bulk best-effort traffic.
//
// Every host sends a chunk around the ring for N-1 rounds, each round
// gated on receiving the previous one — so one slow message anywhere
// stalls the whole application. The rounds run as the coflow workload
// (Config.Coflows): admitted through the CAC with a per-round deadline and
// carried as regulated traffic. The deadline-based architectures keep the
// collective fast under full interference; the traditional switch lets
// multimedia queued in the same VC stall it.
//
//	go run ./examples/collective
package main

import (
	"fmt"
	"log"

	"deadlineqos"
	"deadlineqos/internal/arch"
	"deadlineqos/internal/report"
)

func main() {
	t := report.NewTable("ring collective (16 hosts, 8KB chunks, 15 rounds) under full load",
		"architecture", "completion", "deadline met", "vs idle")

	// Idle-network baseline for reference.
	idle := runOnce(deadlineqos.Advanced2VC, 0)
	if !idle.AllDone {
		log.Fatal("baseline collective incomplete")
	}

	for _, a := range arch.All() {
		c := runOnce(a, 1.0)
		completion := "incomplete"
		ratio := "-"
		if c.AllDone {
			completion = c.CompletionTime.String()
			ratio = fmt.Sprintf("%.1fx", float64(c.CompletionTime)/float64(idle.CompletionTime))
		}
		t.Add(a.String(), completion, fmt.Sprintf("%d/%d", c.DeadlineMet, c.Coflows), ratio)
	}
	fmt.Println(t)
	fmt.Printf("idle-network baseline: %v\n\n", idle.CompletionTime)
	fmt.Println("Deadline scheduling keeps the parallel application's critical path")
	fmt.Println("within a small factor of the idle-network floor, every round on")
	fmt.Println("time, while video and bulk transfers saturate every link — the")
	fmt.Println("single-network cluster the paper argues for.")
}

// runOnce executes one collective under the given architecture and load.
func runOnce(a deadlineqos.Arch, load float64) *deadlineqos.CoflowResults {
	cfg := deadlineqos.SmallConfig()
	cfg.Arch = a
	cfg.Load = load
	cfg.ClassShare = [deadlineqos.NumClasses]float64{0, 0.25, 0.375, 0.375}
	cfg.WarmUp = 0
	cfg.Measure = 30 * deadlineqos.Millisecond
	cfg.Coflows = &deadlineqos.CoflowConfig{
		Chunk: 8 * deadlineqos.Kilobyte, StartAt: 2 * deadlineqos.Millisecond,
	}
	res, err := deadlineqos.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return res.Coflows
}
