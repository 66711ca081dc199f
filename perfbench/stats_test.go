package main

import "testing"

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tailPercentile must sort
	}
	return xs
}

// TestTailPercentileNeedsTenBeyond pins the reporting rule: a percentile
// is reported only when at least ten samples rank beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // 10 beyond
		{99, 0.9, 90, false}, // rank 90 of 99: 9 beyond
		{110, 0.9, 99, true}, // rank 99 of 110: 11 beyond
		{20, 0.5, 10, true},  // the median of 20 has 10 beyond
		{19, 0.5, 10, false}, // rank 10 of 19: 9 beyond
		{1000, 0.99, 990, true},
		{5, 0.9, 5, false},
	} {
		got, ok := tailPercentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := tailPercentile(nil, 0.9); ok {
		t.Error("tailPercentile of no samples reported a value")
	}
}

// TestEndToEndSampleCounts checks that op_s counts only timed ops (the
// warm-up is excluded), failed ops keep their latency, and ops_per_s
// counts only ops that passed.
func TestEndToEndSampleCounts(t *testing.T) {
	m := &measurement{
		samples: []opSample{
			{lat: 100},             // warm-up
			{lat: 1},               // timed
			{lat: 3, failed: true}, // timed, failed
			{lat: 2},               // timed
		},
		elapsed: 4,
	}
	p := plainRun{setup: []float64{0.5, 0.1, 0.2}, m: m}
	got := map[string]float64{}
	for _, d := range endToEnd {
		got[d.name] = d.value(p)
	}
	if got["op_s"] != 2 {
		t.Errorf("op_s = %v, want 2 (median of the three timed ops)", got["op_s"])
	}
	if got["ops_per_s"] != 0.5 {
		t.Errorf("ops_per_s = %v, want 0.5 (two passing ops in 4 s)", got["ops_per_s"])
	}
	if got["setup_s"] != 0.2 {
		t.Errorf("setup_s = %v, want the median set-up 0.2", got["setup_s"])
	}
}
