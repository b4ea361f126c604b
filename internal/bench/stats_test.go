package bench

import (
	"math"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(values, n=4),
// the computation the benchmark's acceptance check uses.
func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in            []float64
		med, p25, p75 float64
	}{
		{[]float64{4}, 4, 4, 4},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6}, 3.5, 1.75, 5.25},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 55, 27.5, 82.5},
		{[]float64{2.5, 2.5, 2.5}, 2.5, 2.5, 2.5},
		{[]float64{7, 1, 3, 9, 5, 11, 13}, 7, 3, 11},
	} {
		s := Summarize(tc.in)
		if s.N != len(tc.in) || !near(s.Median, tc.med) || !near(s.P25, tc.p25) || !near(s.P75, tc.p75) {
			t.Errorf("Summarize(%v) = median %v p25 %v p75 %v n %d, want %v %v %v %d",
				tc.in, s.Median, s.P25, s.P75, s.N, tc.med, tc.p25, tc.p75, len(tc.in))
		}
	}
	if s := Summarize(nil); s.N != 0 || s.Median != 0 {
		t.Errorf("Summarize(nil) = %+v", s)
	}
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 {
		t.Error("Summarize reordered its input")
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
