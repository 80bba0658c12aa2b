package nn

import (
	"fmt"

	"memlife/internal/tensor"
)

// Conv2D is a 2-D convolution over channel-major (C,H,W) rows. The
// kernel is stored as a matrix of shape [InC*KH*KW, OutC] — the unrolled
// form that is mapped onto a crossbar, where each column is one output
// filter and each row one input of the dot-product engine.
type Conv2D struct {
	name string
	Geom tensor.ConvGeom
	OutC int

	Weight *Param
	Bias   *Param

	table *tensor.PatchTable // built once from Geom; every pass reads x through it
	x     *tensor.Tensor     // cached forward input

	// Backward scratch, sized on the first backward call.
	dpos, dW *tensor.Tensor
	scratch  tensor.ConvScratch

	workers int // forward-pass parallelism (see Network.SetForwardWorkers)
}

// NewConv2D constructs a convolution layer with He-initialized kernels.
func NewConv2D(name string, geom tensor.ConvGeom, outC int, rng *tensor.RNG) *Conv2D {
	if err := geom.Validate(); err != nil {
		panic(fmt.Sprintf("nn: conv %q: %v", name, err))
	}
	if outC <= 0 {
		panic(fmt.Sprintf("nn: conv %q needs positive output channels, got %d", name, outC))
	}
	patch := geom.InC * geom.KH * geom.KW
	w := tensor.New(patch, outC)
	rng.HeInit(w, patch)
	return &Conv2D{
		name: name, Geom: geom, OutC: outC,
		Weight: newParam(name+".w", KindWeight, w),
		Bias:   newParam(name+".b", KindBias, tensor.New(outC)),
		table:  tensor.NewPatchTable(geom),
	}
}

// Name implements Layer.
func (l *Conv2D) Name() string { return l.name }

// Params implements Layer.
func (l *Conv2D) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// InputSize returns the expected per-sample input width.
func (l *Conv2D) InputSize() int { return l.Geom.InC * l.Geom.InH * l.Geom.InW }

// OutputSize implements Layer.
func (l *Conv2D) OutputSize(in int) int {
	if in != l.InputSize() {
		panic(fmt.Sprintf("nn: conv %q expects input size %d, got %d", l.name, l.InputSize(), in))
	}
	return l.OutC * l.Geom.OutH() * l.Geom.OutW()
}

// Forward implements Layer. Each output row holds the channel-major
// (OutC, OutH, OutW) volume of one sample.
func (l *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b, in := x.Dim(0), l.InputSize()
	if x.Dim(1) != in {
		panic(fmt.Sprintf("nn: conv %q forward input width %d, want %d", l.name, x.Dim(1), in))
	}
	positions := l.Geom.OutH() * l.Geom.OutW()

	l.x = x
	out := tensor.New(b, l.OutC*positions)
	bias := l.Bias.W.Data()

	// Samples are independent, so chunking them over workers leaves the
	// output bit-identical for every worker count. Each chunk owns one
	// position-major product, reused per sample.
	tensor.ParallelRows(b, l.workers, func(s0, s1 int) {
		pos := tensor.New(positions, l.OutC)
		pd := pos.Data()
		for s := s0; s < s1; s++ {
			l.table.ForwardInto(pos, x.Data()[s*in:(s+1)*in], l.Weight.W)
			// Transpose position-major [positions, OutC] into the
			// channel-major output row, adding the per-channel bias.
			row := out.Data()[s*l.OutC*positions : (s+1)*l.OutC*positions]
			for p := 0; p < positions; p++ {
				for c := 0; c < l.OutC; c++ {
					row[c*positions+p] = pd[p*l.OutC+c] + bias[c]
				}
			}
		}
	})
	return out
}

// Backward implements Layer. It reads the cached forward input through
// the patch table, so it works after Forward in either mode.
func (l *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(dout.Dim(0), l.InputSize())
	l.backward(dout, dx)
	return dx
}

// backwardParams implements paramBackward.
func (l *Conv2D) backwardParams(dout *tensor.Tensor) { l.backward(dout, nil) }

// backward accumulates the weight and bias gradients of dout, sample by
// sample, and writes the input gradient into dx unless dx is nil.
func (l *Conv2D) backward(dout, dx *tensor.Tensor) {
	b, in := dout.Dim(0), l.InputSize()
	positions := l.Geom.OutH() * l.Geom.OutW()

	if l.dpos == nil {
		l.dpos = tensor.New(positions, l.OutC)
		l.dW = tensor.New(l.Weight.W.Dim(0), l.OutC)
	}
	// One weight finiteness check per call (see tensor.PatchTable).
	l.scratch.Prepare(l.table, l.Weight.W)
	dp := l.dpos.Data()
	db := l.Bias.Grad.Data()
	for s := 0; s < b; s++ {
		// Channel-major gradient row -> position-major matrix,
		// accumulating the bias gradient on the way.
		row := dout.Data()[s*l.OutC*positions : (s+1)*l.OutC*positions]
		for c := 0; c < l.OutC; c++ {
			gsum := 0.0
			for p := 0; p < positions; p++ {
				v := row[c*positions+p]
				dp[p*l.OutC+c] = v
				gsum += v
			}
			db[c] += gsum
		}
		// dW += patches(x)ᵀ @ dpos, one per-sample partial at a time.
		l.table.WeightGradInto(l.dW, l.x.Data()[s*in:(s+1)*in], l.dpos, &l.scratch)
		l.Weight.Grad.Axpy(1, l.dW)
		if dx != nil {
			l.table.InputGradInto(dx.Data()[s*in:(s+1)*in], l.dpos, l.Weight.W, &l.scratch)
		}
	}
}
