package nn

import (
	"math"
	"testing"

	"memlife/internal/tensor"
)

// specials mixes the values the branch-free selections must treat as
// the branches did: ±0, ±Inf, NaN, and ties.
func specials(n int, rng *tensor.RNG) []float64 {
	pool := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1.5, -1.5, 1.5}
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(2) == 0 {
			v[i] = pool[rng.Intn(len(pool))]
		} else {
			v[i] = rng.Normal(0, 1)
		}
	}
	return v
}

func requireBits(t *testing.T, got, want []float64, what string) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestReLUMatchesBranchingForm checks the bit-mask ReLU against the
// branching form it replaced: forward values, mask and backward, bit for
// bit, over ±0, ±Inf and NaN in both the input and the gradient.
func TestReLUMatchesBranchingForm(t *testing.T) {
	rng := tensor.NewRNG(11)
	x := tensor.FromSlice(specials(3*40, rng), 3, 40)
	dout := tensor.FromSlice(specials(3*40, rng), 3, 40)

	wantOut := x.Clone()
	wantMask := make([]bool, x.Size())
	for i, v := range wantOut.Data() {
		if v > 0 {
			wantMask[i] = true
		} else {
			wantOut.Data()[i] = 0
		}
	}
	wantDX := dout.Clone()
	for i := range wantDX.Data() {
		if !wantMask[i] {
			wantDX.Data()[i] = 0
		}
	}

	l := NewReLU()
	l.Forward(tensor.New(5, 40), true) // a stale, larger mask must not leak
	out := l.Forward(x, true)
	requireBits(t, out.Data(), wantOut.Data(), "forward")
	for i, m := range wantMask {
		if l.mask[i] != m {
			t.Fatalf("mask[%d] = %v, want %v (x = %v)", i, l.mask[i], m, x.Data()[i])
		}
	}
	requireBits(t, l.Backward(dout).Data(), wantDX.Data(), "backward")
}

// TestMaxPool2x2MatchesGeneral checks the 2x2 stride-2 pooling path
// against the general one on the same geometry: values and argmax, bit
// for bit, over ties (the first of equal elements wins, so +0 and -0
// pick the earlier one's sign), NaN and -Inf, including windows that
// are all NaN or -Inf. Odd input sizes leave the last row and column
// out of every window.
func TestMaxPool2x2MatchesGeneral(t *testing.T) {
	for _, g := range []tensor.ConvGeom{
		{InC: 3, InH: 6, InW: 8, KH: 2, KW: 2, StrideH: 2, StrideW: 2},
		{InC: 2, InH: 5, InW: 7, KH: 2, KW: 2, StrideH: 2, StrideW: 2},
	} {
		l := NewMaxPool2D("pool", g)
		rng := tensor.NewRNG(int64(g.InH))
		in := specials(l.InputSize(), rng)
		// Window 0 all NaN, window 1 all -Inf, window 2 a ±0 tie.
		w := func(k, dy, dx int) int { return 2*k + dy*g.InW + dx }
		for d := 0; d < 4; d++ {
			in[w(0, d/2, d%2)] = math.NaN()
			in[w(1, d/2, d%2)] = math.Inf(-1)
			in[w(2, d/2, d%2)] = math.Copysign(0, float64(d%2*2-1))
		}
		outN := l.OutputSize(l.InputSize())
		want, got := make([]float64, outN), make([]float64, outN)
		wantArg, gotArg := make([]int, outN), make([]int, outN)
		l.forwardGeneral(in, want, wantArg)
		l.forward2x2(in, got, gotArg)
		requireBits(t, got, want, "2x2 pool values")
		for i := range wantArg {
			if gotArg[i] != wantArg[i] {
				t.Fatalf("argmax %d is %d, want %d", i, gotArg[i], wantArg[i])
			}
		}
		if !math.IsInf(want[0], -1) || wantArg[0] != 0 || wantArg[1] != 2 {
			t.Fatalf("all-NaN and all--Inf windows: got %v at %d and %d, want -Inf at their first elements", want[0], wantArg[0], wantArg[1])
		}
		if math.Float64bits(want[2]) != math.Float64bits(math.Copysign(0, -1)) || wantArg[2] != w(2, 0, 0) {
			t.Fatalf("-0/+0 tie: got %v at %d, want the first element, -0", want[2], wantArg[2])
		}
		// The same windows ran through the layer, forward then
		// backward, must not index outside the input.
		x := tensor.FromSlice(in, 1, len(in))
		l.Forward(x, true)
		ones := tensor.New(1, outN)
		ones.Fill(1)
		dx := l.Backward(ones)
		if dx.Data()[0] != 1 || dx.Data()[2] != 1 {
			t.Fatalf("the gradients of the all-NaN and all--Inf windows go to %v and %v, want 1 and 1", dx.Data()[0], dx.Data()[2])
		}
	}
}

// TestMaxPoolNonFiniteWindowsBackward is the regression for a window
// with no element above -Inf: its argmax was -1 and Backward panicked.
// Padding makes the general path's first window start out of bounds.
func TestMaxPoolNonFiniteWindowsBackward(t *testing.T) {
	g := tensor.ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	l := NewMaxPool2D("pool", g)
	x := tensor.FromSlice([]float64{
		math.NaN(), math.Inf(-1), math.NaN(),
		math.Inf(-1), math.NaN(), math.Inf(-1),
		math.NaN(), math.Inf(-1), math.NaN(),
	}, 1, 9)
	out := l.Forward(x, true)
	for i, v := range out.Data() {
		if !math.IsInf(v, -1) {
			t.Fatalf("output %d is %v, want -Inf", i, v)
		}
	}
	dout := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 4)
	dx := l.Backward(dout)
	// Each window's first in-bounds element takes its gradient.
	want := []float64{1, 2, 0, 3, 4, 0, 0, 0, 0}
	for i, v := range want {
		if dx.Data()[i] != v {
			t.Fatalf("backward = %v, want %v", dx.Data(), want)
		}
	}
}

var allocSink *tensor.Tensor

// TestConvBackwardAllocs pins the backward pass's buffer ownership:
// after a warm-up call, Conv2D.Backward allocates only the dx it
// returns, and the parameter-gradient half allocates nothing.
func TestConvBackwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := tensor.ConvGeom{InC: 3, InH: 8, InW: 8, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	l := NewConv2D("c", g, 6, tensor.NewRNG(1))
	rng := tensor.NewRNG(2)
	x := tensor.New(4, l.InputSize())
	rng.FillNormal(x, 0, 1)
	dout := tensor.New(4, l.OutputSize(l.InputSize()))
	rng.FillNormal(dout, 0, 1)
	for i := 0; i < len(dout.Data()); i += 3 {
		dout.Data()[i] = 0
	}
	l.Forward(x, true)
	l.Backward(dout)
	dxAllocs := testing.AllocsPerRun(20, func() { allocSink = tensor.New(4, l.InputSize()) })
	if got := testing.AllocsPerRun(20, func() { allocSink = l.Backward(dout) }); got > dxAllocs {
		t.Fatalf("Backward allocates %v times per call, want at most the %v of its dx", got, dxAllocs)
	}
	if got := testing.AllocsPerRun(20, func() { l.backwardParams(dout) }); got != 0 {
		t.Fatalf("backwardParams allocates %v times per call, want 0", got)
	}
}
