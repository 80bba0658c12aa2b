package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// tail percentile for it to be reported at all.
const minTail = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of
// xs by the method of Python's statistics.quantiles(xs, n=4), the
// default "exclusive" method, so the steadiness report matches the
// spread computed from the same values elsewhere. It needs at least
// two samples; with fewer it returns the single value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		// statistics.quantiles, method="exclusive": m = n+1.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	return sorted[rank(n, p)-1]
}

// rank returns the 1-based nearest rank of the p-th percentile of n
// samples. The tolerance keeps a product such as 99.9% of 10000 from
// rounding up past its exact integer value.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns how many of n samples lie strictly beyond the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailPercentiles are the percentiles a latency tail is reported at,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// highestPercentile returns the highest of tailPercentiles that has at
// least minTail of n samples beyond it, and false when even the median
// does not.
func highestPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minTail {
			return p, true
		}
	}
	return 0, false
}

// latencies collects the outcome of every attempted request of one
// kind. A request that failed or was refused is a miss: it is counted
// as an infinitely slow sample, so it lands beyond every latency
// percentile instead of silently vanishing from the distribution.
type latencies struct {
	samples []float64 // seconds; +Inf for a miss
	misses  int
}

// record counts one request: its latency when err is nil, a miss
// otherwise.
func (l *latencies) record(sec float64, err error) {
	if err != nil {
		sec = math.Inf(1)
		l.misses++
	}
	l.samples = append(l.samples, sec)
}

// attempted returns the number of requests recorded.
func (l *latencies) attempted() int { return len(l.samples) }

// at returns the nearest-rank p-th percentile over all attempts.
func (l *latencies) at(p float64) float64 { return percentile(sortedCopy(l.samples), p) }

// window is a measured phase of fixed length. The first repetition
// always runs; a later one starts only if it is expected to finish in
// time, judging by the previous repetition's duration, so a run lasts
// about the window and never a whole repetition longer.
type window struct{ deadline time.Time }

func newWindow(d time.Duration) window { return window{deadline: time.Now().Add(d)} }

// another reports whether to start another repetition after done
// (durations in seconds).
func (w window) another(done []float64) bool {
	if len(done) == 0 {
		return true
	}
	last := time.Duration(done[len(done)-1] * float64(time.Second))
	return !time.Now().Add(last).After(w.deadline)
}
