package analysis

import "sort"

// KSStatistic returns the two-sample Kolmogorov-Smirnov statistic: the
// maximum vertical distance between the empirical CDFs of a and b, in
// [0, 1]. Panics on empty inputs. No experiment reports it; a test
// uses it to check that skewed training moves the weight distribution
// away from its conventional shape (Fig. 3 vs Fig. 6).
func KSStatistic(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		panic("analysis: KS statistic of empty sample")
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)

	maxD := 0.0
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		// Advance past every sample equal to the smaller current
		// value on BOTH sides, so ties move the two CDFs together.
		x := as[i]
		if bs[j] < x {
			x = bs[j]
		}
		for i < len(as) && as[i] == x {
			i++
		}
		for j < len(bs) && bs[j] == x {
			j++
		}
		d := float64(i)/float64(len(as)) - float64(j)/float64(len(bs))
		if d < 0 {
			d = -d
		}
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}
