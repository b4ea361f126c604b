package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with the same seed diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	master := New(7)
	a := master.Split(0)
	b := master.Split(1)
	if a.Uint64() == b.Uint64() {
		t.Fatal("split streams start identically")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(4)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUniformIntInclusive(t *testing.T) {
	r := New(5)
	sawLo, sawHi := false, false
	for i := 0; i < 20000; i++ {
		v := r.UniformInt(10, 13)
		if v < 10 || v > 13 {
			t.Fatalf("UniformInt(10,13) = %d", v)
		}
		sawLo = sawLo || v == 10
		sawHi = sawHi || v == 13
	}
	if !sawLo || !sawHi {
		t.Fatal("UniformInt never hit an endpoint")
	}
	if v := r.UniformInt(5, 5); v != 5 {
		t.Fatalf("degenerate UniformInt = %d, want 5", v)
	}
}

func TestExpMean(t *testing.T) {
	r := New(6)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(100)
	}
	mean := sum / n
	if math.Abs(mean-100) > 2 {
		t.Fatalf("Exp(100) sample mean = %v, want ~100", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(8)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(50, 10)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-50) > 0.5 {
		t.Fatalf("Normal mean = %v, want ~50", mean)
	}
	if math.Abs(math.Sqrt(variance)-10) > 0.5 {
		t.Fatalf("Normal stddev = %v, want ~10", math.Sqrt(variance))
	}
}

func TestParetoTail(t *testing.T) {
	r := New(9)
	const n = 100000
	over := 0
	for i := 0; i < n; i++ {
		v := r.Pareto(1.5, 1)
		if v < 1 {
			t.Fatalf("Pareto below scale: %v", v)
		}
		if v > 10 {
			over++
		}
	}
	// P(X > 10) = 10^-1.5 ~ 0.0316 for Pareto(1.5, 1).
	frac := float64(over) / n
	if frac < 0.025 || frac > 0.040 {
		t.Fatalf("Pareto tail mass P(X>10) = %v, want ~0.0316", frac)
	}
}

func TestBoundedParetoStaysInBounds(t *testing.T) {
	prop := func(seed uint64) bool {
		r, d := New(seed), NewBoundedPareto(1.3, 128, 102400)
		for i := 0; i < 100; i++ {
			v := d.Draw(r)
			if v < 128 || v > 102400 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedParetoDegenerate(t *testing.T) {
	r := New(10)
	point, inverted := NewBoundedPareto(1.3, 100, 100), NewBoundedPareto(1.3, 100, 50)
	if v := point.Draw(r); v != 100 {
		t.Fatalf("degenerate BoundedPareto = %v, want 100", v)
	}
	if v := inverted.Draw(r); v != 100 {
		t.Fatalf("inverted-bounds BoundedPareto = %v, want lo", v)
	}
}

func TestBoundedParetoSkew(t *testing.T) {
	// The bounded Pareto must remain right-skewed: the median should sit
	// well below the midpoint of the support.
	r, d := New(11), NewBoundedPareto(1.3, 128, 102400)
	const n = 50000
	below := 0
	mid := (128.0 + 102400.0) / 2
	for i := 0; i < n; i++ {
		if d.Draw(r) < mid {
			below++
		}
	}
	if frac := float64(below) / n; frac < 0.95 {
		t.Fatalf("bounded Pareto not heavy-tailed: only %v of mass below midpoint", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	prop := func(seed uint64) bool {
		r := New(seed)
		p := r.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(12)
	s := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		sum += v
	}
	if sum != 21 {
		t.Fatalf("shuffle lost elements: sum = %d", sum)
	}
}
