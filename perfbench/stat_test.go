package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tail must sort
	}
	return xs
}

func TestTailLeavesTenCellsBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, wantP int
		wantV    float64
	}{
		{n: 66, wantP: 84, wantV: 56}, // st_forward: rank ceil(55.44)=56
		{n: 24, wantP: 58, wantV: 14}, // st_loadheavy
		{n: 28, wantP: 64, wantV: 18}, // mt_coherence
		{n: 11, wantP: 9, wantV: 1},   // smallest list with a qualifying percentile
		{n: 1000, wantP: 99, wantV: 990},
	} {
		p, v, ok := tail(seq(tc.n))
		if !ok || p != tc.wantP || v != tc.wantV {
			t.Errorf("tail(n=%d) = p%d %v %v, want p%d %v", tc.n, p, v, ok, tc.wantP, tc.wantV)
		}
		if beyond := tc.n - int(v); beyond < tailBeyond {
			t.Errorf("tail(n=%d): only %d samples beyond", tc.n, beyond)
		}
		// One percentile higher must leave fewer than ten beyond.
		if p < 99 {
			if rank := ((p+1)*tc.n + 99) / 100; tc.n-rank >= tailBeyond {
				t.Errorf("tail(n=%d): p%d also qualifies", tc.n, p+1)
			}
		}
	}
}

func TestTailTooFewSamples(t *testing.T) {
	if p, _, ok := tail(seq(10)); ok {
		t.Errorf("tail of 10 samples = p%d, want none", p)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestDeadlineMargin(t *testing.T) {
	p := pass{
		cellSecs: []float64{0.3, 0.1, 5, 3.0},
		cellKeys: []string{"a", "b", "mt", "c"},
		cellMT:   []bool{false, false, true, false},
	}
	// b: max(8·0.3, 2)/0.1 = 24; mt is first of its class; c: 2.4/3.0.
	m, key, ok := p.deadlineMargin()
	if !ok || key != "c" || !near(m, 0.8) {
		t.Fatalf("margin = %v at %q (ok %v), want 0.8 at c", m, key, ok)
	}
	if _, _, ok := (pass{cellSecs: []float64{1}, cellKeys: []string{"a"}, cellMT: []bool{false}}).deadlineMargin(); ok {
		t.Fatal("a lone cell has no calibrated deadline")
	}
}
