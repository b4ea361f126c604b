package network

// Gray-failure reporting. A gray failure is a link that still carries
// traffic but persistently slower than provisioned: a fault-plan Derate
// that neither clears nor hardens into a LinkDown. Route repair reacts
// only to dead fabric, and the CACs merely shrink their ledgers to the
// derated capacity, so regulated flows would keep crossing the slow
// drain until their deadline slack is gone and the miss-burst SLO trips.
// The detector closes that gap; its decisions come from the fault replay
// (replay.go), and this file merges the per-shard counters they feed
// into Results.Gray.

import "fmt"

// GrayReport summarises the detector's run (Results.Gray; nil unless
// Config.GrayPersistence is positive). All counters record actions that
// executed inside the run horizon.
type GrayReport struct {
	// Detections counts gray declarations (one per link episode still
	// below the threshold when the detector fires).
	Detections uint64 `json:"detections"`
	// FlowsRerouted counts static flows proactively moved off gray links.
	FlowsRerouted uint64 `json:"flows_rerouted"`
	// Revalidations counts CAC revalidation sweeps triggered (one per
	// detection per CAC endpoint; zero without sessions).
	Revalidations uint64 `json:"revalidations"`
}

// String renders the gray report for the CLI tools.
func (g *GrayReport) String() string {
	return fmt.Sprintf("gray[detected=%d rerouted=%d revalidations=%d]",
		g.Detections, g.FlowsRerouted, g.Revalidations)
}

// grayShard is one shard's executed detector actions, recorded at event
// time (actions scheduled past the horizon never count) and merged
// order-independently at the end of Run.
type grayShard struct {
	detected uint64
	rerouted uint64
	revals   uint64
}

// buildGrayReport merges the per-shard detector counters into
// Results.Gray. Nil unless the detector was configured.
func (n *Network) buildGrayReport(res *Results) {
	if n.cfg.GrayPersistence == 0 {
		return
	}
	rep := &GrayReport{}
	for _, sh := range n.shards {
		if sh.gray == nil {
			continue
		}
		rep.Detections += sh.gray.detected
		rep.FlowsRerouted += sh.gray.rerouted
		rep.Revalidations += sh.gray.revals
	}
	res.Gray = rep
}
