package nn

import (
	"math"

	"memlife/internal/tensor"
)

// Layer is one differentiable stage of a network. Forward consumes and
// produces [B, D] batch tensors; Backward consumes the gradient with
// respect to the forward output and returns the gradient with respect to
// the forward input, accumulating parameter gradients along the way.
// Backward must be called after the Forward whose activations it needs.
// A layer may keep a reference to its forward input x instead of a
// copy, so the caller must not mutate x between Forward and Backward.
type Layer interface {
	Name() string
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(dout *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	// OutputSize returns the per-sample output width given the
	// per-sample input width, so networks can be shape-checked at
	// construction time.
	OutputSize(inputSize int) int
}

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (l *ReLU) Name() string { return "relu" }

// Params implements Layer; activations are parameter-free.
func (l *ReLU) Params() []*Param { return nil }

// OutputSize implements Layer.
func (l *ReLU) OutputSize(in int) int { return in }

// Forward implements Layer. Each output element is selected by a bit
// mask rather than a branch, which random-sign activations would
// mispredict: x where x > 0, +0 elsewhere (NaN included).
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	xd := x.Data()
	d := out.Data()[:len(xd)]
	if cap(l.mask) < len(xd) {
		l.mask = make([]bool, len(xd))
	}
	l.mask = l.mask[:len(xd)]
	mask := l.mask
	for i, v := range xd {
		keep := v > 0
		mask[i] = keep
		d[i] = math.Float64frombits(math.Float64bits(v) & bitMask(keep))
	}
	return out
}

// Backward implements Layer: dout where the forward input was positive,
// +0 elsewhere, selected by bit mask.
func (l *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(dout.Shape()...)
	g := dout.Data()
	d := dx.Data()[:len(g)]
	mask := l.mask[:len(g)]
	for i, v := range g {
		d[i] = math.Float64frombits(math.Float64bits(v) & bitMask(mask[i]))
	}
	return dx
}

// bitMask returns all ones for true and zero for false; the compiler
// turns it into a conditional move.
func bitMask(b bool) uint64 {
	var m uint64
	if b {
		m = ^uint64(0)
	}
	return m
}

// Flatten marks the transition from spatial to fully-connected layers.
// Because every layer already exchanges flat [B, D] tensors it is an
// identity at runtime, kept for architectural fidelity with the paper's
// network descriptions.
type Flatten struct{}

// NewFlatten returns a flatten marker layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (l *Flatten) Name() string { return "flatten" }

// Params implements Layer.
func (l *Flatten) Params() []*Param { return nil }

// OutputSize implements Layer.
func (l *Flatten) OutputSize(in int) int { return in }

// Forward implements Layer.
func (l *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }

// Backward implements Layer.
func (l *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor { return dout }
