// Package stat holds the benchmark's statistics: percentiles reported only
// where the sample supports them, Python-compatible quartiles, the serving
// ladder's max-rate rule, failure accounting and the same-host A/B verdict.
package stat

import (
	"math"
	"sort"
)

// Ladder is the set of percentiles a timing may be reported at, median
// first.
var Ladder = []float64{50, 90, 99, 99.9}

// MinBeyond is the number of samples that must lie beyond a reported
// percentile.
const MinBeyond = 10

// Percentile returns the p-th percentile (0 < p <= 100) of sorted by
// nearest rank: the smallest value with at least p% of the sample at or
// below it. NaN for an empty sample.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	return sorted[rank(n, p)-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile in n
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error in p/100*n (99.9% of 10000 computes
	// as 9990.000000000002) from bumping an exact rank up by one.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Beyond returns how many of n samples lie above the p-th percentile's
// nearest-rank position.
func Beyond(n int, p float64) int { return n - rank(n, p) }

// TailPercentile returns the highest Ladder percentile with at least
// MinBeyond samples beyond it in a sample of n, and false when even the
// median lacks that support.
func TailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range Ladder {
		if Beyond(n, p) >= MinBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the median of xs (mean of the middle pair for an even
// count), as Python's statistics.median does. NaN for an empty sample.
func Median(xs []float64) float64 {
	s := Sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Quartiles returns Q1, Q2 and Q3 of xs by the same rule as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// spreads this package reports match the ones a Python checker computes.
// It needs at least two values; with fewer all three are NaN (or the lone
// value).
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := Sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const nq = 4
	m := n + 1
	var out [3]float64
	for i := 1; i < nq; i++ {
		j := i * m / nq
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*nq)
		out[i-1] = (s[j-1]*(nq-delta) + s[j]*delta) / nq
	}
	return out[0], out[1], out[2]
}

// Spread returns the interquartile distance of xs as a share of its
// median — the steadiness figure of one metric over repeated runs.
func Spread(xs []float64) float64 {
	q1, _, q3 := Quartiles(xs)
	return (q3 - q1) / Median(xs)
}

// Tally counts the outcomes of attempted operations. A failed operation
// returned an error, a refused one was turned away (shed), a wrong one
// returned an output that failed its check; all three count against the
// error rate.
type Tally struct {
	Attempted int64
	Failed    int64
	Refused   int64
	Wrong     int64
}

// Bad is the number of operations that did not produce a correct output.
func (t Tally) Bad() int64 { return t.Failed + t.Refused + t.Wrong }

// ErrorRate is Bad over Attempted; 0 when nothing was attempted.
func (t Tally) ErrorRate() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Bad()) / float64(t.Attempted)
}

// Rung is one fixed-rate step of an open-loop load ladder.
type Rung struct {
	Rate float64 // offered requests per second
	// LatMs holds one latency per request, timed from its due time; a
	// failed or refused request is +Inf, since it misses any limit.
	LatMs []float64
	// Backlog is the number of requests already due but not yet sent when
	// the rung's last request fell due.
	Backlog int
	// Conns is the number of connections the generator sent on.
	Conns int
}

// LimitPercentile is the percentile the ladder's latency limit applies to.
const LimitPercentile = 99

// Passes reports whether the rung met the latency limit at
// LimitPercentile without a growing backlog: at the rung's end no more
// requests wait to be sent than there are connections to send them on.
func (r Rung) Passes(limitMs float64) bool {
	if len(r.LatMs) == 0 {
		return false
	}
	return Percentile(Sorted(r.LatMs), LimitPercentile) <= limitMs && r.Backlog <= r.Conns
}

// MaxPassing returns the index of the highest-rate rung below the first
// failing one (rungs in ascending rate order), or -1 when the first rung
// already fails. Stopping at the first failure keeps one noisy pass above
// the knee from being reported as capacity.
func MaxPassing(rungs []Rung, limitMs float64) int {
	best := -1
	for i, r := range rungs {
		if !r.Passes(limitMs) {
			break
		}
		best = i
	}
	return best
}

// Verdict is the same-host A/B judgement of one metric.
type Verdict string

// Verdicts, following the paired-run rule: a gain needs the change to win
// at least nine tenths of the pairs and the medians to differ by more than
// the parent's own interquartile distance; a regression is a change median
// worse than the parent's by more than the metric's bound. When the
// parent's spread exceeds the bound, anything short of a gain is
// unresolved unless every change run reads better than every parent run.
const (
	Gain       Verdict = "gain"
	Regression Verdict = "regression"
	NoChange   Verdict = "no change"
	Unresolved Verdict = "unresolved"
)

// Judge compares paired runs of parent and change. lowerBetter gives the
// metric's direction and bound the share of the parent's median by which
// it may worsen. Pairs are matched by index; ties count for neither side.
func Judge(parent, change []float64, lowerBetter bool, bound float64) (v Verdict, wins int) {
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	n := len(parent)
	if len(change) < n {
		n = len(change)
	}
	for i := 0; i < n; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	mp, mc := Median(parent), Median(change)
	q1, _, q3 := Quartiles(parent)
	iqr := q3 - q1
	if n > 0 && float64(wins) >= 0.9*float64(n) && better(mc, mp) && math.Abs(mc-mp) > iqr {
		return Gain, wins
	}
	if iqr > bound*math.Abs(mp) && !allBetter(parent, change, better) {
		return Unresolved, wins
	}
	worse := mc - mp
	if !lowerBetter {
		worse = mp - mc
	}
	if worse > bound*math.Abs(mp) {
		return Regression, wins
	}
	return NoChange, wins
}

// allBetter reports whether every change run reads better than every
// parent run.
func allBetter(parent, change []float64, better func(c, p float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return len(change) > 0 && len(parent) > 0
}
