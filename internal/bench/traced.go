package bench

import "fmt"

// Traced runs w's traced repetitions and returns its per-layer metrics:
// counters and rates from unprofiled repetitions, self-time fractions from
// one CPU-profiled repetition, the observation overhead against w's twin
// and the parsim speedup against a 1-shard rerun. The microbenchmarks are
// Micro's.
func (r *Runner) Traced(w Workload) (*WorkloadReport, error) {
	rep := &WorkloadReport{Workload: w.Name, Seed: r.Seed}
	root, end := r.span("traced", w, 0)
	defer end()
	cfg, err := w.Config(r.Seed)
	if err != nil {
		return nil, err
	}
	path, err := r.profilePath(w)
	if err != nil {
		return nil, err
	}
	var tw Workload
	if w.Twin != "" {
		if tw, err = Lookup(w.Twin); err != nil {
			return nil, err
		}
	}

	// Two unprofiled repetitions of the run's seed give the rates a median
	// and check determinism. The profiled, twin and 1-shard repetitions
	// run between and beside them, so slow drift in host speed lands on
	// both sides of each ratio.
	set := &repSet{what: w.Name}
	prof := &repSet{what: w.Name + " profiled"}
	twin := &repSet{what: tw.Name}
	seq := &repSet{what: w.Name + " at 1 shard"}
	for i := 0; i < 2; i++ {
		r.once(set, w, ChildOptions{}, root, r.Seed)
		if w.Twin != "" {
			r.once(twin, tw, ChildOptions{}, root, r.Seed)
		}
		if i == 0 {
			r.once(prof, w, ChildOptions{CPUProfile: path}, root, r.Seed)
			if cfg.Shards > 1 {
				r.once(seq, w, ChildOptions{Shards: 1}, root, r.Seed)
			}
		}
	}
	prof.requireSame(set, r.Seed)
	seq.requireSame(set, r.Seed)
	rep.absorb(set, prof, twin, seq)
	r.finish(rep, w, set)
	if len(set.reps) == 0 || len(prof.reps) == 0 {
		return rep, nil
	}

	m := layerCounters(set.reps)
	rate := medianOf(set.reps, RepResult.simMsPerS)
	m["bench.profile_overhead_frac"] = rate/prof.reps[0].simMsPerS() - 1
	m["obs.overhead_frac"] = 0
	if len(twin.reps) > 0 {
		m["obs.overhead_frac"] = medianOf(twin.reps, RepResult.simMsPerS)/rate - 1
	}
	m["parsim.speedup_2v1"], m["parsim.relay_event_frac"] = 1, 0
	if len(seq.reps) > 0 {
		s := seq.reps[0]
		m["parsim.speedup_2v1"] = rate / s.simMsPerS()
		m["parsim.relay_event_frac"] = float64(set.reps[0].Events)/float64(s.Events) - 1
	}

	_, attrEnd := r.span("attribute", w, root)
	fr, err := Attribute(path)
	attrEnd()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	for k, v := range fr {
		m["self_frac."+k] = v
	}
	rep.PerLayer = m
	return rep, nil
}

// Micro runs the layer microbenchmarks once for a traced invocation; they
// do not depend on the workload.
func (r *Runner) Micro() map[string]float64 {
	run := fmt.Sprintf("micro/seed%d", r.Seed)
	if r.Spans == nil {
		return RunMicro(nil, run, 0)
	}
	id, end := r.Spans.Start("micro", run, 0)
	defer end()
	return RunMicro(r.Spans, run, id)
}

// layerCounters derives the per-layer counters and engine rates from the
// unprofiled repetitions. The model counters repeat exactly at a seed;
// the medians only matter for the rates.
func layerCounters(reps []RepResult) map[string]float64 {
	first := reps[0]
	f := func(fn func(RepResult) float64) float64 { return medianOf(reps, fn) }
	return map[string]float64{
		"sim.events":                 float64(first.Events),
		"sim.events_per_s":           f(func(r RepResult) float64 { return float64(r.Events) / r.RunS }),
		"sim.ns_per_event":           f(func(r RepResult) float64 { return r.RunS * 1e9 / float64(r.Events) }),
		"sim.max_pending":            float64(first.MaxPending),
		"sim.mallocs_per_event":      f(func(r RepResult) float64 { return float64(r.Mallocs) / float64(r.Events) }),
		"switchsim.xbar_transfers":   float64(first.XbarTransfers),
		"switchsim.order_errors":     float64(first.OrderErrors),
		"pqueue.takeovers":           float64(first.TakeOvers),
		"link.sends":                 float64(first.LinkSends),
		"network.backlog_at_horizon": float64(first.Backlog),
		"hostif.retransmits":         float64(first.Retransmits),
		"session.setups":             float64(first.SessionSetups),
		"session.accept_ratio":       first.AcceptRatio,
	}
}
