package stat

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

// TestTailPercentile: the reported tail is the highest ladder percentile
// with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // the median has 9 beyond
		{20, 50, true},
		{99, 50, true}, // p90 is rank 90: 9 beyond
		{100, 90, true},
		{999, 90, true}, // p99 is rank 990: 9 beyond
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := TailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("TailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && Beyond(c.n, got) < MinBeyond {
			t.Errorf("n=%d: p%v has %d samples beyond", c.n, got, Beyond(c.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := Percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty sample must give NaN")
	}
}

// TestQuartilesMatchPython pins Quartiles and Median to the values of
// Python's statistics.quantiles(xs, n=4) and statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
		median     float64
	}{
		{seq(10), 2.75, 5.5, 8.25, 5.5},
		{seq(5), 1.5, 3, 4.5, 3},
		{[]float64{20, 10}, 7.5, 15, 22.5, 15},
		{[]float64{3.1, 0.5, 7.25, 2.0, 9.5, 4.4, 6.0}, 2.0, 4.4, 7.25, 4.4},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := Median(c.xs); m != c.median {
			t.Errorf("Median(%v) = %v, want %v", c.xs, m, c.median)
		}
	}
	if got := Spread(seq(10)); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("Spread = %v, want 1", got)
	}
}

// TestTallyErrorRate: failed, refused and wrong outputs all count against
// the attempts.
func TestTallyErrorRate(t *testing.T) {
	if (Tally{}).ErrorRate() != 0 {
		t.Fatal("idle tally must read 0")
	}
	tl := Tally{Attempted: 16, Failed: 1, Refused: 2, Wrong: 1}
	if tl.Bad() != 4 {
		t.Fatalf("tally %+v: %d bad", tl, tl.Bad())
	}
	if got := tl.ErrorRate(); got != 0.25 {
		t.Fatalf("error rate = %v, want 0.25", got)
	}
}

// TestLadderRule: a step passes when its p99 meets the limit and no more
// requests wait than there are connections; capacity is the highest step
// below the first failure, and a failed request misses any limit.
func TestLadderRule(t *testing.T) {
	step := func(rate, latMs float64, backlog int) Rung {
		r := Rung{Rate: rate, Backlog: backlog, Conns: 2}
		for i := 0; i < 200; i++ {
			r.LatMs = append(r.LatMs, latMs)
		}
		return r
	}
	const limit = 50
	if !step(100, 10, 2).Passes(limit) {
		t.Error("fast step with backlog at the connection count must pass")
	}
	if step(100, 10, 3).Passes(limit) {
		t.Error("a growing backlog must fail the step")
	}
	if step(100, 60, 0).Passes(limit) {
		t.Error("p99 above the limit must fail the step")
	}
	failing := step(100, 10, 0)
	for i := 0; i < 3; i++ {
		failing.LatMs[i] = math.Inf(1) // 1.5% failed: p99 is a miss
	}
	if failing.Passes(limit) {
		t.Error("failed requests must count as missing the limit")
	}
	if (Rung{Conns: 2}).Passes(limit) {
		t.Error("an empty step must not pass")
	}

	ladder := []Rung{step(100, 5, 0), step(200, 8, 1), step(400, 70, 40), step(800, 9, 0)}
	if got := MaxPassing(ladder, limit); got != 1 {
		t.Errorf("MaxPassing = %d, want 1 (a pass above the first failure does not count)", got)
	}
	if got := MaxPassing(ladder[2:], limit); got != -1 {
		t.Errorf("MaxPassing with a failing first step = %d, want -1", got)
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	if v, wins := Judge(parent, faster, true, 0.1); v != Gain || wins != 10 {
		t.Errorf("clear speed-up: %v with %d wins", v, wins)
	}
	slower := []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}
	if v, _ := Judge(parent, slower, true, 0.1); v != Regression {
		t.Errorf("30%% slower with a 10%% bound: %v", v)
	}
	if v, _ := Judge(parent, parent, true, 0.1); v != NoChange {
		t.Errorf("identical runs: %v", v)
	}
	// Throughput: higher is better.
	if v, _ := Judge(faster, parent, false, 0.1); v != Gain {
		t.Errorf("higher throughput: %v", v)
	}
	// Eight wins of ten is not enough for a gain.
	mixed := append([]float64(nil), faster...)
	mixed[0], mixed[1] = 120, 120
	if v, wins := Judge(parent, mixed, true, 0.5); v == Gain || wins != 8 {
		t.Errorf("8/10 wins: %v with %d wins", v, wins)
	}
	// A parent spread wider than the bound leaves a non-gain unresolved.
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if v, _ := Judge(noisy, noisy, true, 0.1); v != Unresolved {
		t.Errorf("noisy parent: %v", v)
	}
}
