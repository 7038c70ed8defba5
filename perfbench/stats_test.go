package main

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7, 9}, 50); got != 7 {
		t.Errorf("p50 of two = %g, want the lower (nearest rank)", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

// A tail percentile is reported only with at least ten samples beyond
// it: p99.9 needs 10,000 samples, p99 1,000, p90 100, the median 20.
func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{9999, 99.9, false}, {10000, 99.9, true},
		{999, 99, false}, {1000, 99, true},
		{99, 90, false}, {100, 90, true},
		{19, 50, false}, {20, 50, true},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// The hosted latency rows follow the rule: p99 appears only once the
// samples support it.
func TestOpLatencyRows(t *testing.T) {
	r := newRound()
	for i := 1; i <= 999; i++ {
		r.span(opSpan, float64(i))
	}
	m := perLayer([]*round{r}, nil)
	if m["op_p50_ms"].Value != 500 || m["op_samples"].Value != 999 {
		t.Errorf("p50 %g over %g samples, want 500 over 999", m["op_p50_ms"].Value, m["op_samples"].Value)
	}
	if m["op_p99_ms"].Value != 0 {
		t.Errorf("p99 = %g from 999 samples, want it withheld", m["op_p99_ms"].Value)
	}
	r.span(opSpan, 1000)
	if m = perLayer([]*round{r}, nil); m["op_p99_ms"].Value != 990 {
		t.Errorf("p99 = %g from 1,000 samples, want 990", m["op_p99_ms"].Value)
	}
}
