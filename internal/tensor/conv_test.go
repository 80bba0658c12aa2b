package tensor

import (
	"fmt"
	"math"
	"testing"
)

func TestConvGeomOutputDims(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 32, InW: 32, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	if g.OutH() != 32 || g.OutW() != 32 {
		t.Fatalf("same-padding 5x5: out = %dx%d, want 32x32", g.OutH(), g.OutW())
	}
	g2 := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	if g2.OutH() != 2 || g2.OutW() != 2 {
		t.Fatalf("stride-2 pooling geometry: out = %dx%d, want 2x2", g2.OutH(), g2.OutW())
	}
}

func TestConvGeomValidate(t *testing.T) {
	bad := []ConvGeom{
		{InC: 0, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 0, KW: 2, StrideH: 1, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 0, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1, PadH: -1},
		{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, StrideH: 1, StrideW: 1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Fatalf("case %d: geometry %+v should be invalid", i, g)
		}
	}
	good := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
}

// TestIm2ColKnownPatch verifies the patch layout on a hand-computed 1x3x3
// input with a 2x2 kernel.
func TestIm2ColKnownPatch(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	in := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	cols := New(g.OutH()*g.OutW(), g.InC*g.KH*g.KW)
	Im2Col(cols, in, g)
	// First patch: rows (1,2),(4,5); last patch: (5,6),(8,9).
	want0 := []float64{1, 2, 4, 5}
	want3 := []float64{5, 6, 8, 9}
	for i, v := range want0 {
		if cols.At(0, i) != v {
			t.Fatalf("patch 0 = %v, want %v", cols.RowSlice(0).Data(), want0)
		}
	}
	for i, v := range want3 {
		if cols.At(3, i) != v {
			t.Fatalf("patch 3 = %v, want %v", cols.RowSlice(3).Data(), want3)
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	in := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	cols := New(g.OutH()*g.OutW(), 9)
	Im2Col(cols, in, g)
	// Top-left output position: the 3x3 window centred at (0,0) has its
	// first row and first column in padding.
	row := cols.RowSlice(0).Data()
	want := []float64{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for i, v := range want {
		if row[i] != v {
			t.Fatalf("padded patch = %v, want %v", row, want)
		}
	}
}

func TestIm2ColMultiChannelOrder(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 2, InW: 2, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	in := FromSlice([]float64{
		1, 2, 3, 4, // channel 0
		5, 6, 7, 8, // channel 1
	}, 2, 2, 2)
	cols := New(1, 8)
	Im2Col(cols, in, g)
	want := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for i, v := range want {
		if cols.Data()[i] != v {
			t.Fatalf("channel-major patch = %v, want %v", cols.Data(), want)
		}
	}
}

// TestCol2ImIsAdjointOfIm2Col verifies <Im2Col(x), y> == <x, Col2Im(y)>
// for random x, y — the defining property of the adjoint, which is
// exactly what backprop through a conv layer requires.
func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	rng := NewRNG(7)
	for trial := 0; trial < 30; trial++ {
		g := ConvGeom{
			InC: 1 + rng.Intn(3), InH: 3 + rng.Intn(5), InW: 3 + rng.Intn(5),
			KH: 1 + rng.Intn(3), KW: 1 + rng.Intn(3),
			StrideH: 1 + rng.Intn(2), StrideW: 1 + rng.Intn(2),
			PadH: rng.Intn(2), PadW: rng.Intn(2),
		}
		if g.Validate() != nil {
			continue
		}
		x := New(g.InC, g.InH, g.InW)
		rng.FillNormal(x, 0, 1)
		rows := g.OutH() * g.OutW()
		patch := g.InC * g.KH * g.KW

		ax := New(rows, patch)
		Im2Col(ax, x, g)
		y := New(rows, patch)
		rng.FillNormal(y, 0, 1)
		aty := New(g.InC, g.InH, g.InW)
		Col2Im(aty, y, g)

		lhs := Dot(ax, y)
		rhs := Dot(x, aty)
		if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
			t.Fatalf("adjoint identity violated for %+v: %g vs %g", g, lhs, rhs)
		}
	}
}

// TestIm2ColConvolutionEquivalence performs a conv via im2col+matmul and
// checks it against a direct nested-loop convolution.
func TestIm2ColConvolutionEquivalence(t *testing.T) {
	rng := NewRNG(3)
	g := ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	outC := 4
	x := New(g.InC, g.InH, g.InW)
	w := New(g.InC*g.KH*g.KW, outC)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(w, 0, 1)

	cols := New(g.OutH()*g.OutW(), g.InC*g.KH*g.KW)
	Im2Col(cols, x, g)
	got := MatMul(cols, w) // [OutH*OutW, outC]

	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < g.OutH(); oy++ {
			for ox := 0; ox < g.OutW(); ox++ {
				s := 0.0
				for c := 0; c < g.InC; c++ {
					for ky := 0; ky < g.KH; ky++ {
						for kx := 0; kx < g.KW; kx++ {
							iy := oy*g.StrideH - g.PadH + ky
							ix := ox*g.StrideW - g.PadW + kx
							if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
								continue
							}
							wIdx := (c*g.KH+ky)*g.KW + kx
							s += x.At(c, iy, ix) * w.At(wIdx, oc)
						}
					}
				}
				if math.Abs(got.At(oy*g.OutW()+ox, oc)-s) > 1e-9 {
					t.Fatalf("im2col conv disagrees with direct conv at oc=%d oy=%d ox=%d", oc, oy, ox)
				}
			}
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c1 := NewRNG(42).Split()
	c2 := NewRNG(42).Split()
	if c1.Float64() != c2.Float64() {
		t.Fatal("Split must be deterministic")
	}
}

func TestInitializerScales(t *testing.T) {
	rng := NewRNG(5)
	w := New(1000)
	rng.HeInit(w, 100)
	std := w.Std()
	want := math.Sqrt(2.0 / 100.0)
	if math.Abs(std-want) > 0.02 {
		t.Fatalf("He init std = %g, want ~%g", std, want)
	}
}

// Im2Col and Col2Im are the im2col formulation of a convolution that
// the PatchTable kernels replaced, kept as their oracle.

// Im2Col expands a single image of shape [C,H,W] (flattened in input)
// into a patch matrix of shape [OutH*OutW, C*KH*KW], writing into dst.
// Each row of dst holds one receptive field in channel-major order, so
// a convolution becomes dst @ W with W shaped [C*KH*KW, OutC].
// Out-of-bounds (padding) positions contribute zeros.
func Im2Col(dst, input *Tensor, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	patch := g.InC * g.KH * g.KW
	if dst.Size() != outH*outW*patch {
		panic(fmt.Sprintf("tensor: Im2Col dst size %d, want %d", dst.Size(), outH*outW*patch))
	}
	if input.Size() != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col input size %d, want %d", input.Size(), g.InC*g.InH*g.InW))
	}
	in := input.data
	out := dst.data
	row := 0
	for oy := 0; oy < outH; oy++ {
		iy0 := oy*g.StrideH - g.PadH
		for ox := 0; ox < outW; ox++ {
			ix0 := ox*g.StrideW - g.PadW
			base := row * patch
			col := 0
			for c := 0; c < g.InC; c++ {
				cOff := c * g.InH * g.InW
				for ky := 0; ky < g.KH; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= g.InH {
						for kx := 0; kx < g.KW; kx++ {
							out[base+col] = 0
							col++
						}
						continue
					}
					rOff := cOff + iy*g.InW
					for kx := 0; kx < g.KW; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= g.InW {
							out[base+col] = 0
						} else {
							out[base+col] = in[rOff+ix]
						}
						col++
					}
				}
			}
			row++
		}
	}
}

// Col2Im is the adjoint of Im2Col: it scatter-adds the patch matrix
// cols of shape [OutH*OutW, C*KH*KW] back into an image gradient of
// shape [C,H,W] in dst. dst is zeroed first.
func Col2Im(dst, cols *Tensor, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	patch := g.InC * g.KH * g.KW
	if cols.Size() != outH*outW*patch {
		panic(fmt.Sprintf("tensor: Col2Im cols size %d, want %d", cols.Size(), outH*outW*patch))
	}
	if dst.Size() != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im dst size %d, want %d", dst.Size(), g.InC*g.InH*g.InW))
	}
	dst.Zero()
	out := dst.data
	in := cols.data
	row := 0
	for oy := 0; oy < outH; oy++ {
		iy0 := oy*g.StrideH - g.PadH
		for ox := 0; ox < outW; ox++ {
			ix0 := ox*g.StrideW - g.PadW
			base := row * patch
			col := 0
			for c := 0; c < g.InC; c++ {
				cOff := c * g.InH * g.InW
				for ky := 0; ky < g.KH; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= g.InH {
						col += g.KW
						continue
					}
					rOff := cOff + iy*g.InW
					for kx := 0; kx < g.KW; kx++ {
						ix := ix0 + kx
						if ix >= 0 && ix < g.InW {
							out[rOff+ix] += in[base+col]
						}
						col++
					}
				}
			}
			row++
		}
	}
}

// assertBitsEqual requires got and want to hold the same float64 bits,
// so NaN payloads and the sign of zero are pinned too.
func assertBitsEqual(t *testing.T, got, want []float64, what string) {
	t.Helper()
	for i, v := range want {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), v, math.Float64bits(v))
		}
	}
}

// sparsify turns about four in five entries of a [positions, n] dpos
// into ±0 (every third row entirely), as ReLU and pooling leave it,
// and, if plant is set, plants ±Inf and NaN among the rest.
func sparsify(dpos *Tensor, rng *RNG, plant bool) {
	n := dpos.shape[1]
	for i := range dpos.data {
		if (i/n)%3 == 1 || rng.Intn(5) != 0 {
			dpos.data[i] = math.Copysign(0, float64(1-2*(i%2)))
		}
	}
	for i := 3; plant && i < len(dpos.data); i += 37 {
		dpos.data[i] = []float64{math.Inf(1), math.Inf(-1), hwNaN}[i%3]
	}
}

// hwNaN is the NaN the hardware makes of Inf·0, the only NaN the
// kernels create. Test data plants it rather than math.NaN(): where two
// NaNs with different payloads meet in an add, which one survives
// depends on the operand order the compiler picks, which no kernel
// pins.
var hwNaN = mulNoinline(math.Inf(1), 0)

//go:noinline
func mulNoinline(a, b float64) float64 { return a * b }

// kernelPaths runs a backward kernel three ways, each into a fresh
// output with a freshly prepared scratch: as its exported method picks
// (run(sc, nil)), with every dpos term kept, and with ±0 dpos terms
// skipped (run(sc, &keepZeros)).
func kernelPaths(run func(sc *ConvScratch, keepZeros *bool) []float64) (picked, all, skip []float64) {
	keep, drop := true, false
	return run(&ConvScratch{}, nil), run(&ConvScratch{}, &keep), run(&ConvScratch{}, &drop)
}

// TestConvTableKernelsBitIdentical proves the three PatchTable kernels
// against the im2col formulation they replace, bit for bit: forward
// against Im2Col + MatMulInto, the weight gradient against Im2Col +
// MatMulATInto, the input gradient against MatMulBTInto + Col2Im. The
// data pins every skip: input channel 1 is all ±0 and faces ±Inf
// weight rows (the forward must skip zeros and padding, or those
// outputs turn NaN); ±Inf dpos entries face zero inputs and padding
// (the weight gradient must skip them); and an Inf in dpos faces a
// zero weight (the input gradient skips nothing, so that dx is NaN).
// Both backward kernels run with ±0 dpos terms kept and skipped over a
// dpos that is mostly ±0 with ±Inf and NaN among the rest. An Inf in
// the input, and an Inf or NaN in the weights, must make the kernel
// that multiplies it by dpos keep every term: skipping would lose an
// Inf·0 = NaN term there.
func TestConvTableKernelsBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		g    ConvGeom
		outC int
	}{
		{"lenet-conv1", ConvGeom{InC: 3, InH: 12, InW: 12, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}, 6},
		{"lenet-conv2", ConvGeom{InC: 6, InH: 6, InW: 6, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}, 16},
		// patch 288 crosses the 256-input gather chunk.
		{"vgg-3x3-c32", ConvGeom{InC: 32, InH: 6, InW: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 13},
		{"stride2-pad0", ConvGeom{InC: 2, InH: 9, InW: 7, KH: 3, KW: 3, StrideH: 2, StrideW: 2}, 5},
		// 400 positions cross the chunk in the weight-gradient gather.
		{"positions-400", ConvGeom{InC: 2, InH: 20, InW: 20, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 3},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, n := tc.g, tc.outC
			positions, patch := g.OutH()*g.OutW(), g.InC*g.KH*g.KW
			plane, taps := g.InH*g.InW, g.KH*g.KW
			rng := NewRNG(int64(100 + ci))

			x := New(g.InC, g.InH, g.InW)
			rng.FillNormal(x, 0, 1)
			for i := 0; i < len(x.data); i += 5 {
				x.data[i] = 0
			}
			for i := 2; i < len(x.data); i += 7 {
				x.data[i] = math.Copysign(0, -1)
			}
			for i := plane; i < 2*plane; i++ { // channel 1: all ±0
				x.data[i] = math.Copysign(0, float64(1-2*(i%2)))
			}

			// Forward: channel 1's weight rows are ±Inf.
			wf := New(patch, n)
			rng.FillNormal(wf, 0, 1)
			for tap := taps; tap < 2*taps; tap++ {
				for j := 0; j < n; j++ {
					wf.data[tap*n+j] = math.Inf(1 - 2*((tap+j)%2))
				}
			}
			cols := New(positions, patch)
			Im2Col(cols, x, g)
			want := New(positions, n)
			MatMulInto(want, cols, wf)
			pt := NewPatchTable(g)
			got := New(positions, n)
			got.Fill(7) // stale contents must not leak into the sums
			pt.ForwardInto(got, x.data, wf)
			assertBitsEqual(t, got.data, want.data, "ForwardInto")
			for _, v := range got.data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("forward output %v: the ±Inf rows face only zeros and padding", v)
				}
			}

			// Weight gradient: ±Inf at the first and last positions,
			// which read padding (when padded) and channel 1's zeros.
			weightGrad := func(x []float64, dpos *Tensor) func(*ConvScratch, *bool) []float64 {
				return func(sc *ConvScratch, keepZeros *bool) []float64 {
					dst := New(patch, n)
					dst.Fill(7)
					sc.Prepare(pt, New(patch, n))
					if keepZeros == nil {
						pt.WeightGradInto(dst, x, dpos, sc)
					} else {
						pt.weightGrad(dst, x, dpos, sc, *keepZeros)
					}
					return dst.data
				}
			}
			for _, sparse := range []bool{false, true} {
				dpos := New(positions, n)
				rng.FillNormal(dpos, 0, 1)
				if sparse {
					sparsify(dpos, rng, true)
				}
				for j := 0; j < n; j++ {
					dpos.data[j] = math.Inf(1)
					dpos.data[(positions-1)*n+j] = math.Inf(-1)
				}
				wantDW := New(patch, n)
				MatMulATInto(wantDW, cols, dpos)
				picked, all, skip := kernelPaths(weightGrad(x.data, dpos))
				assertBitsEqual(t, picked, wantDW.data, "WeightGradInto")
				assertBitsEqual(t, all, wantDW.data, "weight gradient, ±0 terms kept")
				assertBitsEqual(t, skip, wantDW.data, "weight gradient, ±0 terms skipped")
				for i := taps * n; i < 2*taps*n; i++ {
					if picked[i] != 0 {
						t.Fatalf("weight gradient of a tap on the all-zero channel is %v, want 0", picked[i])
					}
				}
			}

			// An Inf input read where dpos is ±0: the guard must keep
			// every term, whose Inf·0 makes that weight gradient NaN.
			dpos := New(positions, n)
			rng.FillNormal(dpos, 0, 1)
			sparsify(dpos, rng, false)
			xInf := x.Clone()
			pInf := 1 + 3*(positions/6) // a row sparsify zeroed
			for _, ix := range pt.idx[pInf*patch : (pInf+1)*patch] {
				if ix >= 0 {
					xInf.data[ix] = math.Inf(1)
					break
				}
			}
			colsInf := New(positions, patch)
			Im2Col(colsInf, xInf, g)
			wantDW := New(patch, n)
			MatMulATInto(wantDW, colsInf, dpos)
			picked, all, skip := kernelPaths(weightGrad(xInf.data, dpos))
			assertBitsEqual(t, picked, wantDW.data, "WeightGradInto, Inf input")
			assertBitsEqual(t, all, wantDW.data, "weight gradient, Inf input, ±0 terms kept")
			if sameBits(skip, wantDW.data) {
				t.Fatal("the Inf input meets no ±0 dpos term: the guard case tests nothing")
			}

			// Input gradient: one Inf in dpos, facing a zero weight.
			wb := New(patch, n)
			rng.FillNormal(wb, 0, 1)
			for i := 0; i < len(wb.data); i += 11 {
				wb.data[i] = 0
			}
			wb.data[0] = 0 // tap 0 meets the Inf with a zero weight
			inputGrad := func(dpos, w *Tensor) func(*ConvScratch, *bool) []float64 {
				return func(sc *ConvScratch, keepZeros *bool) []float64 {
					dx := make([]float64, g.InC*g.InH*g.InW)
					for i := range dx {
						dx[i] = 7
					}
					sc.Prepare(pt, w)
					if keepZeros == nil {
						pt.InputGradInto(dx, dpos, w, sc)
					} else {
						pt.inputGrad(dx, dpos, w, sc, *keepZeros)
					}
					return dx
				}
			}
			wantInputGrad := func(dpos, w *Tensor) []float64 {
				dcols := New(positions, patch)
				MatMulBTInto(dcols, dpos, w)
				dx := New(g.InC, g.InH, g.InW)
				Col2Im(dx, dcols, g)
				return dx.data
			}
			p0 := positions / 2
			for _, sparse := range []bool{false, true} {
				dposX := New(positions, n)
				rng.FillNormal(dposX, 0, 1)
				if sparse {
					sparsify(dposX, rng, true)
				}
				dposX.data[p0*n] = math.Inf(1)
				wantDX := wantInputGrad(dposX, wb)
				picked, all, skip := kernelPaths(inputGrad(dposX, wb))
				assertBitsEqual(t, picked, wantDX, "InputGradInto")
				assertBitsEqual(t, all, wantDX, "input gradient, ±0 terms kept")
				assertBitsEqual(t, skip, wantDX, "input gradient, ±0 terms skipped")
				if ix := pt.idx[p0*patch]; ix >= 0 && !math.IsNaN(picked[ix]) {
					t.Fatalf("dx[%d] = %v: Inf times a zero weight must give NaN", ix, picked[ix])
				}
			}

			// An Inf and a NaN weight facing ±0 dpos entries: the guard
			// must keep every term, whose products with them are NaN.
			dposX := New(positions, n)
			rng.FillNormal(dposX, 0, 1)
			sparsify(dposX, rng, false)
			for bi, bad := range []float64{math.Inf(-1), hwNaN} {
				wBad := wb.Clone()
				wBad.data[(patch/2)*n+bi%n] = bad
				wantDX := wantInputGrad(dposX, wBad)
				picked, all, skip := kernelPaths(inputGrad(dposX, wBad))
				assertBitsEqual(t, picked, wantDX, fmt.Sprintf("InputGradInto, %v weight", bad))
				assertBitsEqual(t, all, wantDX, fmt.Sprintf("input gradient, %v weight, ±0 terms kept", bad))
				if sameBits(skip, wantDX) {
					t.Fatalf("the %v weight meets no ±0 dpos term: the guard case tests nothing", bad)
				}
			}
		})
	}
}

// TestInputGradIntoChecksPreparedWeights: a scratch prepared for other
// weights carries their finiteness check, so InputGradInto refuses it.
func TestInputGradIntoChecksPreparedWeights(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	pt := NewPatchTable(g)
	w, other := New(9, 2), New(9, 2)
	var sc ConvScratch
	sc.Prepare(pt, other)
	defer func() {
		if recover() == nil {
			t.Fatal("InputGradInto accepted a scratch prepared for other weights")
		}
	}()
	pt.InputGradInto(make([]float64, 16), New(4, 2), w, &sc)
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestPatchTableEntries pins the table against Im2Col: entry (p, t) is
// the index of the input Im2Col copies into row p, column t, or -1
// exactly where Im2Col writes padding.
func TestPatchTableEntries(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 5, InW: 4, KH: 3, KW: 2, StrideH: 2, StrideW: 1, PadH: 1, PadW: 1}
	x := New(g.InC, g.InH, g.InW)
	for i := range x.data {
		x.data[i] = float64(i + 1) // 0 only in padding
	}
	cols := New(g.OutH()*g.OutW(), g.InC*g.KH*g.KW)
	Im2Col(cols, x, g)
	pt := NewPatchTable(g)
	if len(pt.idx) != len(cols.data) {
		t.Fatalf("table has %d entries, want %d", len(pt.idx), len(cols.data))
	}
	for i, ix := range pt.idx {
		want := int32(cols.data[i]) - 1
		if ix != want {
			t.Fatalf("entry %d is %d, want %d", i, ix, want)
		}
	}
}
