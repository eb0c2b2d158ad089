package main

import "testing"

func sample(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct, v float64
	}{
		{1000, 99, 990}, // exactly ten samples beyond the 990th
		{999, 90, 900},  // p99 would leave nine beyond
		{100, 90, 90},
		{99, 50, 50},
		{21, 50, 11},
		{20, 50, 10},
		{15, 100, 15}, // too few for any: the maximum
	} {
		pct, v := tail(sample(c.n))
		if pct != c.pct || v != c.v {
			t.Errorf("n=%d: tail p%g = %g, want p%g = %g", c.n, pct, v, c.pct, c.v)
		}
		if pct < 100 {
			if _, beyond := rank(sample(c.n), pct); beyond < minBeyond {
				t.Errorf("n=%d: p%g has %d samples beyond it", c.n, pct, beyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %g", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of none = %g", m)
	}
}
