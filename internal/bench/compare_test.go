package bench

import "testing"

func TestJudge(t *testing.T) {
	const bound = 0.10
	for _, tc := range []struct {
		name           string
		parent, change []float64
		higherBetter   bool
		want           Verdict
	}{
		{"identical", []float64{10, 10, 10}, []float64{10, 10, 10}, true, Same},
		{"small move inside bound", []float64{10, 10.1, 9.9}, []float64{9.5, 9.6, 9.4}, true, Same},
		{"throughput drop beyond bound", []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, true, Worse},
		{"throughput gain beyond bound", []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, true, Better},
		{"cost rise beyond bound", []float64{1, 1.01, 0.99}, []float64{1.2, 1.21, 1.19}, false, Worse},
		{"cost fall beyond bound", []float64{1, 1.01, 0.99}, []float64{0.8, 0.81, 0.79}, false, Better},
		// The parent's IQR (8..12 of 10, 40%) is wider than the bound and
		// the samples overlap: a 15% move cannot be told from noise.
		{"noisy overlap is unresolved", []float64{6, 8, 10, 12, 14}, []float64{5, 7, 8.5, 10, 12}, true, Unresolved},
		{"noisy without a move is unresolved", []float64{6, 8, 10, 12, 14}, []float64{6, 8, 10, 12, 14}, true, Unresolved},
		// Same spread, but every change sample is below every parent one.
		{"noisy but separated", []float64{16, 18, 20, 22, 24}, []float64{6, 7, 8, 9, 10}, true, Worse},
		{"noisy, separated, within bound", []float64{10.5, 11, 11.5, 12, 12.5}, []float64{10.2, 10.3, 10.4, 10.45, 10.49}, true, Same},
		{"empty side", nil, []float64{1}, true, Unresolved},
	} {
		got := Judge(Summarize(tc.parent), Summarize(tc.change), tc.higherBetter, bound)
		if got != tc.want {
			t.Errorf("%s: Judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRowsPerWorkloadAndMetric(t *testing.T) {
	spec := &Spec{EndToEnd: []SpecMetric{{"sim_ms_per_s", "sim-ms/s", "higher", 0.1}}}
	side := func(v float64) Result {
		return Result{Workloads: []*WorkloadReport{
			{Workload: "a", EndToEnd: map[string]Summary{"sim_ms_per_s": Summarize([]float64{v, v, v})}},
			{Workload: "only-here", EndToEnd: map[string]Summary{"sim_ms_per_s": Summarize([]float64{v})}},
		}}
	}
	change := side(5)
	change.Workloads = change.Workloads[:1]
	rows := Compare(spec, side(10), change)
	if len(rows) != 1 || rows[0].Workload != "a" || rows[0].Verdict != Worse {
		t.Fatalf("rows = %+v, want one worse row for workload a", rows)
	}
}
