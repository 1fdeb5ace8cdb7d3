package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPolyFitExactCubic(t *testing.T) {
	// y = 2 + 3x − x² + 0.5x³ sampled exactly must be recovered exactly.
	want := []float64{2, 3, -1, 0.5}
	var xs, ys []float64
	for x := 0.0; x < 8; x++ {
		xs = append(xs, x)
		ys = append(ys, PolyEval(want, x))
	}
	got, err := PolyFit(xs, ys, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !approx(got[i], want[i], 1e-6) {
			t.Fatalf("coefficient %d = %g, want %g", i, got[i], want[i])
		}
	}
	if r2 := RSquared(got, xs, ys); !approx(r2, 1, 1e-9) {
		t.Fatalf("R² = %g, want 1", r2)
	}
}

func TestPolyFitLeastSquares(t *testing.T) {
	// Noisy linear data: degree-1 fit should recover slope≈2, intercept≈1.
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := []float64{1.1, 2.9, 5.2, 6.8, 9.1, 10.9}
	c, err := PolyFit(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(c[1], 2, 0.1) || !approx(c[0], 1, 0.3) {
		t.Fatalf("fit = %v", c)
	}
	if r2 := RSquared(c, xs, ys); r2 < 0.99 {
		t.Fatalf("R² = %g", r2)
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1, 2}, []float64{1}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, 2); err == nil {
		t.Error("underdetermined system accepted")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Error("negative degree accepted")
	}
	// Singular: all x identical cannot determine a slope.
	if _, err := PolyFit([]float64{3, 3, 3}, []float64{1, 2, 3}, 1); err == nil {
		t.Error("singular system accepted")
	}
}

func TestPolyFitDegreeZero(t *testing.T) {
	c, err := PolyFit([]float64{1, 2, 3}, []float64{4, 6, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(c[0], 6, 1e-9) {
		t.Fatalf("mean fit = %v, want [6]", c)
	}
}

// TestPolyFitInterpolationProperty: for any degree-2 polynomial and ≥3
// distinct sample points, the fit reproduces the values.
func TestPolyFitInterpolationProperty(t *testing.T) {
	f := func(a, b, c int8) bool {
		coef := []float64{float64(a), float64(b), float64(c)}
		xs := []float64{-2, -1, 0, 1, 2, 3}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = PolyEval(coef, x)
		}
		got, err := PolyFit(xs, ys, 2)
		if err != nil {
			return false
		}
		for i, x := range xs {
			if !approx(PolyEval(got, x), ys[i], 1e-6*(1+math.Abs(ys[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {100, 50}, {50, 35},
		{25, 20}, {75, 40},
		{40, 29},            // rank 1.6: 20 + 0.6*(35-20)
		{-5, 15}, {120, 50}, // clamped
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !approx(got, c.want, 1e-9) {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(empty) must return 0")
	}
	if Percentile([]float64{42}, 99) != 42 {
		t.Error("Percentile(single) must return the element")
	}
	// The input must not be reordered.
	orig := []float64{9, 1, 5}
	Percentile(orig, 50)
	if orig[0] != 9 || orig[1] != 1 || orig[2] != 5 {
		t.Error("Percentile mutated its input")
	}
}
