package bench

import "sort"

// Summary is one metric's distribution over a run's repetitions. With
// five repetitions no percentile above p75 has ten samples beyond it, so
// none is reported.
type Summary struct {
	Median float64   `json:"median"`
	P25    float64   `json:"p25"`
	P75    float64   `json:"p75"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// Summarize computes the median and quartiles of values.
func Summarize(values []float64) Summary {
	s := Summary{N: len(values), Values: append([]float64(nil), values...)}
	if len(values) == 0 {
		return s
	}
	s.Median = Median(values)
	s.P25, s.P75 = Quartiles(values)
	return s
}

// IQRFrac is the interquartile range as a share of the median.
func (s Summary) IQRFrac() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.P75 - s.P25) / s.Median
}

// Median returns the middle value, or the mean of the two middle values.
func Median(values []float64) float64 {
	v := sorted(values)
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// Quartiles returns the first and third quartiles by the exclusive method
// of Python's statistics.quantiles(values, n=4), so the benchmark's own
// spread matches the one its acceptance check computes. Fewer than two
// values have no spread: both quartiles are the value itself.
func Quartiles(values []float64) (p25, p75 float64) {
	v := sorted(values)
	n := len(v)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return v[0], v[0]
	}
	q := func(i int) float64 {
		m := n + 1
		// j is clamped to [1, n-1] before delta is taken, as in Python,
		// so small samples extrapolate past their extremes.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(values []float64) []float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	return v
}
