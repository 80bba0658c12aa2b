package tuning

import (
	"math"
	"sort"
	"testing"

	"memlife/internal/tensor"
)

// TestKthLargestAbsMatchesSort checks the selection against the sort it
// replaced: the value sort.Float64s puts at index len-k, on random
// lengths 1-5000 with heavy ties, +0, -0 and NaN (which that sort
// orders first), already-sorted and reversed inputs, and k at 1, n/4,
// n and past n. Values are compared under the sort's own equality:
// +0 and -0 tie, and sort.Float64s leaves their relative order open.
func TestKthLargestAbsMatchesSort(t *testing.T) {
	rng := tensor.NewRNG(31)
	ties := []float64{0, math.Copysign(0, -1), 0.5, 1, 1, 2, 3}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(5000)
		if trial < 20 {
			n = 1 + trial
		}
		in := make([]float64, n)
		for i := range in {
			switch trial % 5 {
			case 0: // continuous magnitudes
				in[i] = math.Abs(rng.Normal(0, 1))
			case 1: // heavy ties
				in[i] = ties[rng.Intn(len(ties))]
			case 2: // ties, NaN and zeros mixed with continuous values
				switch r := rng.Intn(10); {
				case r < 3:
					in[i] = math.NaN()
				case r < 6:
					in[i] = ties[rng.Intn(2)]
				default:
					in[i] = math.Abs(rng.Normal(0, 1))
				}
			case 3: // ascending
				in[i] = float64(i / 3)
			case 4: // descending, then a NaN tail
				in[i] = float64(n - i)
				if i > n-n/8 {
					in[i] = math.NaN()
				}
			}
		}
		sorted := append([]float64(nil), in...)
		sort.Float64s(sorted)
		for _, k := range []int{1, max(n/4, 1), n, n + 3} {
			want := sorted[max(n-k, 0)]
			got := kthLargestAbs(append([]float64(nil), in...), k)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("trial %d (n=%d), k=%d: got %v, want %v", trial, n, k, got, want)
			}
		}
	}
}
