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

// Forward implements Layer.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x.Clone()
	d := out.Data()
	if cap(l.mask) < len(d) {
		l.mask = make([]bool, len(d))
	}
	l.mask = l.mask[:len(d)]
	for i, v := range d {
		if v > 0 {
			l.mask[i] = true
		} else {
			l.mask[i] = false
			d[i] = 0
		}
	}
	return out
}

// Backward implements Layer.
func (l *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := dout.Clone()
	d := dx.Data()
	for i := range d {
		if !l.mask[i] {
			d[i] = 0
		}
	}
	return dx
}

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	out *tensor.Tensor
}

// NewTanh returns a tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Name implements Layer.
func (l *Tanh) Name() string { return "tanh" }

// Params implements Layer.
func (l *Tanh) Params() []*Param { return nil }

// OutputSize implements Layer.
func (l *Tanh) OutputSize(in int) int { return in }

// Forward implements Layer.
func (l *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.out = x.Map(math.Tanh)
	return l.out
}

// Backward implements Layer.
func (l *Tanh) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := dout.Clone()
	o := l.out.Data()
	d := dx.Data()
	for i := range d {
		d[i] *= 1 - o[i]*o[i]
	}
	return dx
}

// Sigmoid is the logistic activation.
type Sigmoid struct {
	out *tensor.Tensor
}

// NewSigmoid returns a sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Name implements Layer.
func (l *Sigmoid) Name() string { return "sigmoid" }

// Params implements Layer.
func (l *Sigmoid) Params() []*Param { return nil }

// OutputSize implements Layer.
func (l *Sigmoid) OutputSize(in int) int { return in }

// Forward implements Layer.
func (l *Sigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.out = x.Map(func(v float64) float64 { return 1 / (1 + math.Exp(-v)) })
	return l.out
}

// Backward implements Layer.
func (l *Sigmoid) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := dout.Clone()
	o := l.out.Data()
	d := dx.Data()
	for i := range d {
		d[i] *= o[i] * (1 - o[i])
	}
	return dx
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

// Dropout zeroes a fraction p of activations during training and scales
// the survivors by 1/(1-p) (inverted dropout), so inference needs no
// rescaling.
type Dropout struct {
	P    float64
	rng  *tensor.RNG
	keep []bool
}

// NewDropout returns a dropout layer with drop probability p in [0,1).
func NewDropout(p float64, rng *tensor.RNG) *Dropout {
	if p < 0 || p >= 1 {
		panic("nn: dropout probability must be in [0,1)")
	}
	return &Dropout{P: p, rng: rng}
}

// Name implements Layer.
func (l *Dropout) Name() string { return "dropout" }

// Params implements Layer.
func (l *Dropout) Params() []*Param { return nil }

// OutputSize implements Layer.
func (l *Dropout) OutputSize(in int) int { return in }

// Forward implements Layer.
func (l *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || l.P == 0 {
		l.keep = nil
		return x
	}
	out := x.Clone()
	d := out.Data()
	if cap(l.keep) < len(d) {
		l.keep = make([]bool, len(d))
	}
	l.keep = l.keep[:len(d)]
	scale := 1 / (1 - l.P)
	for i := range d {
		if l.rng.Float64() < l.P {
			l.keep[i] = false
			d[i] = 0
		} else {
			l.keep[i] = true
			d[i] *= scale
		}
	}
	return out
}

// Backward implements Layer.
func (l *Dropout) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if l.keep == nil {
		return dout
	}
	dx := dout.Clone()
	d := dx.Data()
	scale := 1 / (1 - l.P)
	for i := range d {
		if l.keep[i] {
			d[i] *= scale
		} else {
			d[i] = 0
		}
	}
	return dx
}
