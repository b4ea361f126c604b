package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Verdict is the outcome of comparing one metric on one workload.
type Verdict string

// Verdicts, from the change's point of view.
const (
	Better     Verdict = "better"
	Same       Verdict = "same"
	Worse      Verdict = "worse"
	Unresolved Verdict = "unresolved"
)

// Spec is BENCHMARK.json: the workloads, and the metrics with their units,
// directions and, end to end, regression bounds.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric of BENCHMARK.json.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// LoadSpec reads the benchmark definition (BENCHMARK.json).
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Row is one workload × metric comparison.
type Row struct {
	Workload, Metric string
	Parent, Change   Summary
	Bound            float64
	Verdict          Verdict
}

// Compare applies the spec's bounds to every end-to-end metric of every
// workload present on both sides.
func Compare(spec *Spec, parent, change Result) []Row {
	changed := map[string]*WorkloadReport{}
	for _, w := range change.Workloads {
		changed[w.Workload] = w
	}
	var rows []Row
	for _, p := range parent.Workloads {
		c, ok := changed[p.Workload]
		if !ok {
			continue
		}
		for _, m := range spec.EndToEnd {
			ps, cs := p.EndToEnd[m.Name], c.EndToEnd[m.Name]
			rows = append(rows, Row{
				Workload: p.Workload, Metric: m.Name, Parent: ps, Change: cs, Bound: m.Bound,
				Verdict: Judge(ps, cs, m.Better == "higher", m.Bound),
			})
		}
	}
	return rows
}

// Judge compares two samples of a metric. The change is worse when its
// median is worse than the parent's by more than bound, and better when
// it is better by more than bound. When either side's interquartile range
// is wider than bound, a difference of that size is within noise, so the
// verdict is unresolved unless every change sample is on the same side of
// every parent sample.
func Judge(parent, change Summary, higherBetter bool, bound float64) Verdict {
	if parent.N == 0 || change.N == 0 || parent.Median == 0 {
		return Unresolved
	}
	// loss > 0 means the change is worse.
	loss := (change.Median - parent.Median) / parent.Median
	if higherBetter {
		loss = -loss
	}
	allBetter, allWorse := separated(parent.Values, change.Values, higherBetter)
	noisy := parent.IQRFrac() > bound || change.IQRFrac() > bound
	switch {
	case loss > bound && (!noisy || allWorse):
		return Worse
	case -loss > bound && (!noisy || allBetter):
		return Better
	case noisy && !allBetter && !allWorse:
		return Unresolved
	}
	return Same
}

// separated reports whether every change value beats every parent value,
// or every one loses to every one.
func separated(parent, change []float64, higherBetter bool) (allBetter, allWorse bool) {
	if len(parent) == 0 || len(change) == 0 {
		return false, false
	}
	pLo, pHi := minMax(parent)
	cLo, cHi := minMax(change)
	if higherBetter {
		return cLo > pHi, cHi < pLo
	}
	return cHi < pLo, cLo > pHi
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
