package tensor

import (
	"fmt"
	"math"
	"testing"
)

// matMulReference is the unblocked streaming kernel, kept verbatim as
// the oracle the dispatching matMulRows is proven against: ascending-p
// accumulation with the zero-input skip, exactly the arithmetic order
// the blocked kernel must preserve.
func matMulReference(dst, a, b *Tensor) {
	k, n := a.shape[1], b.shape[1]
	for i := 0; i < a.shape[0]; i++ {
		arow := a.data[i*k : (i+1)*k]
		drow := dst.data[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// TestMatMulBlockedBitIdentical drives shapes on both sides of the
// blocking threshold — including ragged tiles and sparse inputs that
// exercise the zero-skip — and requires the dispatching kernel to match
// the streaming oracle with == (no tolerance).
func TestMatMulBlockedBitIdentical(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{3, 5, 7},    // tiny, unblocked
		{32, 64, 64}, // the bench shape, unblocked
		{4, matMulBlockK + 33, matMulBlockN + 17},   // ragged tiles, blocked
		{9, 3 * matMulBlockK, 2 * matMulBlockN},     // exact tiles, blocked
		{1, matMulBlockK * 4, matMulBlockN/2 + 111}, // tall-skinny, blocked
	}
	for _, s := range shapes {
		t.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			if blocked := s.k*s.n > matMulBlockMinFloats; !blocked && s.k > matMulBlockK {
				t.Logf("shape below threshold (k*n=%d)", s.k*s.n)
			}
			rng := NewRNG(int64(s.m*1000 + s.k*10 + s.n))
			a := New(s.m, s.k)
			b := New(s.k, s.n)
			rng.FillNormal(a, 0, 1)
			rng.FillNormal(b, 0, 1)
			// Sprinkle exact zeros so the skip path runs in both kernels.
			for i := 0; i < len(a.data); i += 7 {
				a.data[i] = 0
			}
			want := New(s.m, s.n)
			matMulReference(want, a, b)
			got := New(s.m, s.n)
			MatMulInto(got, a, b)
			for i, v := range want.data {
				if got.data[i] != v {
					t.Fatalf("element %d differs: %v vs %v", i, got.data[i], v)
				}
			}
			// The row-parallel entry must dispatch identically too.
			for _, workers := range []int{1, 2, 8} {
				gw := New(s.m, s.n)
				MatMulWorkersInto(gw, a, b, workers)
				for i, v := range want.data {
					if gw.data[i] != v {
						t.Fatalf("workers=%d element %d differs: %v vs %v", workers, i, gw.data[i], v)
					}
				}
			}
		})
	}
}

// matMulBTReference is the MatMulBTInto loop before register blocking,
// kept verbatim as its oracle: one dot product per output element,
// starting from +0 and adding every product (zeros included) in
// ascending p.
func matMulBTReference(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		drow := dst.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.data[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				s += av * brow[p]
			}
			drow[j] = s
		}
	}
}

// kernelOperands draws a [m,k] and b [k,n] with exact zeros and -0
// sprinkled into a, and every third column of a zeroed (alternately +0
// and -0) in all rows with ±Inf or NaN in the b row it meets. A kernel
// that drops the zero-input skip turns those outputs into NaN.
func kernelOperands(seed int64, m, k, n int) (a, b *Tensor) {
	rng := NewRNG(seed)
	a, b = New(m, k), New(k, n)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	for i := 0; i < len(a.data); i += 5 {
		a.data[i] = 0
	}
	for i := 2; i < len(a.data); i += 7 {
		a.data[i] = math.Copysign(0, -1)
	}
	poison := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for p := 1; p < k; p += 3 {
		for i := 0; i < m; i++ {
			a.data[i*k+p] = math.Copysign(0, float64(1-2*(p%2)))
		}
		for j := 0; j < n; j++ {
			b.data[p*n+j] = poison[(p+j)%len(poison)]
		}
	}
	return a, b
}

// assertBitIdentical requires got == want element by element (NaN
// matching NaN), so a kernel that reorders a sum, loses the sign of a
// zero or adds or drops a zero skip fails.
func assertBitIdentical(t *testing.T, got, want *Tensor, what string) {
	t.Helper()
	for i, v := range want.data {
		g := got.data[i]
		if math.IsNaN(v) && math.IsNaN(g) {
			continue
		}
		if g != v || math.Signbit(g) != math.Signbit(v) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got.data[i], v)
		}
	}
}

// TestRegisterBlockedKernelsBitIdentical proves the register-blocked
// streaming matMulRows and MatMulBTInto against their verbatim oracles
// with ==: at every column-tail width of the 6/4/2/1 and 4/1 blocks,
// across the 256-input gather chunk, and on the LeNet conv and dense
// shapes through both the serial and the row-parallel entries.
func TestRegisterBlockedKernelsBitIdentical(t *testing.T) {
	type shape struct{ m, k, n int }
	var shapes []shape
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17} {
		shapes = append(shapes, shape{5, 13, n}, shape{3, matMulNZChunk + 45, n})
	}
	shapes = append(shapes,
		shape{256, 75, 6},   // LeNet conv1 im2col product
		shape{64, 150, 16},  // LeNet conv2 im2col product
		shape{64, 256, 120}, // LeNet fc1
	)
	for _, s := range shapes {
		t.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			if s.k*s.n > matMulBlockMinFloats {
				t.Fatalf("shape %v would take the cache-blocked kernel", s)
			}
			a, b := kernelOperands(int64(s.m*1000+s.k*10+s.n), s.m, s.k, s.n)
			want := New(s.m, s.n)
			matMulReference(want, a, b)
			got := New(s.m, s.n)
			got.Fill(7) // stale contents must not leak into the sums
			MatMulInto(got, a, b)
			assertBitIdentical(t, got, want, "MatMulInto")
			for _, workers := range []int{1, 2, 8} {
				gw := New(s.m, s.n)
				MatMulWorkersInto(gw, a, b, workers)
				assertBitIdentical(t, gw, want, fmt.Sprintf("MatMulWorkersInto(%d)", workers))
			}

			// MatMulBTInto has no skip: an Inf facing a zero input makes
			// the first output column NaN, in the oracle too.
			bt := New(s.n, s.k)
			NewRNG(int64(s.n)).FillNormal(bt, 0, 1)
			bt.data[1] = math.Inf(1)
			wantBT := New(s.m, s.n)
			matMulBTReference(wantBT, a, bt)
			gotBT := New(s.m, s.n)
			gotBT.Fill(7)
			MatMulBTInto(gotBT, a, bt)
			assertBitIdentical(t, gotBT, wantBT, "MatMulBTInto")
		})
	}
}
