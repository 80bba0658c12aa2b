package nn

import (
	"fmt"
	"math"

	"memlife/internal/tensor"
)

// MaxPool2D applies channel-wise max pooling over (C,H,W) rows.
type MaxPool2D struct {
	name string
	Geom tensor.ConvGeom // KH/KW are the window, InC channels pooled independently

	argmax []int // flat input index chosen for each output element
	inSize int
}

// NewMaxPool2D constructs a max-pooling layer. geom.InC is the channel
// count; the window is geom.KH x geom.KW with the given strides.
func NewMaxPool2D(name string, geom tensor.ConvGeom) *MaxPool2D {
	if err := geom.Validate(); err != nil {
		panic(fmt.Sprintf("nn: maxpool %q: %v", name, err))
	}
	return &MaxPool2D{name: name, Geom: geom}
}

// Name implements Layer.
func (l *MaxPool2D) Name() string { return l.name }

// Params implements Layer.
func (l *MaxPool2D) Params() []*Param { return nil }

// InputSize returns the expected per-sample input width.
func (l *MaxPool2D) InputSize() int { return l.Geom.InC * l.Geom.InH * l.Geom.InW }

// OutputSize implements Layer.
func (l *MaxPool2D) OutputSize(in int) int {
	if in != l.InputSize() {
		panic(fmt.Sprintf("nn: maxpool %q expects input size %d, got %d", l.name, l.InputSize(), in))
	}
	return l.Geom.InC * l.Geom.OutH() * l.Geom.OutW()
}

// Forward implements Layer. Each window keeps its first strictly
// greatest element, scanning row by row: the output is -Inf where no
// element exceeds -Inf (all -Inf or NaN), and the argmax is then the
// window's first in-bounds element.
func (l *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b := x.Dim(0)
	g := l.Geom
	outPerSample := g.InC * g.OutH() * g.OutW()
	l.inSize = x.Dim(1)

	out := tensor.New(b, outPerSample)
	if cap(l.argmax) < b*outPerSample {
		l.argmax = make([]int, b*outPerSample)
	}
	l.argmax = l.argmax[:b*outPerSample]

	pool := l.forwardGeneral
	if g.KH == 2 && g.KW == 2 && g.StrideH == 2 && g.StrideW == 2 && g.PadH == 0 && g.PadW == 0 {
		pool = l.forward2x2
	}
	for s := 0; s < b; s++ {
		pool(x.RowSlice(s).Data(), out.RowSlice(s).Data(), l.argmax[s*outPerSample:(s+1)*outPerSample])
	}
	return out
}

// forwardGeneral pools one sample of any geometry into o, recording
// each window's argmax in arg.
func (l *MaxPool2D) forwardGeneral(in, o []float64, arg []int) {
	g := l.Geom
	outH, outW := g.OutH(), g.OutW()
	oi := 0
	for c := 0; c < g.InC; c++ {
		cOff := c * g.InH * g.InW
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*g.StrideH - g.PadH
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*g.StrideW - g.PadW
				best := math.Inf(-1)
				bestIdx := -1
				for ky := 0; ky < g.KH; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= g.InH {
						continue
					}
					for kx := 0; kx < g.KW; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= g.InW {
							continue
						}
						idx := cOff + iy*g.InW + ix
						if bestIdx < 0 {
							bestIdx = idx
						}
						if in[idx] > best {
							best = in[idx]
							bestIdx = idx
						}
					}
				}
				o[oi] = best
				arg[oi] = bestIdx
				oi++
			}
		}
	}
}

// forward2x2 is forwardGeneral for 2x2 windows at stride 2 without
// padding. It makes the same four strict > comparisons in the same
// order, selecting by bit mask instead of branching.
func (l *MaxPool2D) forward2x2(in, o []float64, arg []int) {
	g := l.Geom
	outH, outW := g.OutH(), g.OutW()
	oi := 0
	for c := 0; c < g.InC; c++ {
		for oy := 0; oy < outH; oy++ {
			r0 := (c*g.InH + 2*oy) * g.InW
			top := in[r0 : r0+2*outW]
			bot := in[r0+g.InW : r0+g.InW+2*outW]
			for ox := 0; ox < outW; ox++ {
				i := 2 * ox
				best, bi := math.Inf(-1), r0+i
				best, bi = maxStep(best, bi, top[i], r0+i)
				best, bi = maxStep(best, bi, top[i+1], r0+i+1)
				best, bi = maxStep(best, bi, bot[i], r0+g.InW+i)
				best, bi = maxStep(best, bi, bot[i+1], r0+g.InW+i+1)
				o[oi] = best
				arg[oi] = bi
				oi++
			}
		}
	}
}

// maxStep returns (v, vi) if v > best, else (best, bi), without a
// branch.
func maxStep(best float64, bi int, v float64, vi int) (float64, int) {
	m := bitMask(v > best)
	bb := math.Float64bits(best)
	best = math.Float64frombits(bb ^ ((bb ^ math.Float64bits(v)) & m))
	return best, bi ^ ((bi ^ vi) & int(m))
}

// Backward implements Layer.
func (l *MaxPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	b := dout.Dim(0)
	outPerSample := dout.Dim(1)
	dx := tensor.New(b, l.inSize)
	for s := 0; s < b; s++ {
		do := dout.RowSlice(s).Data()
		di := dx.RowSlice(s).Data()
		for oi, g := range do {
			di[l.argmax[s*outPerSample+oi]] += g
		}
	}
	return dx
}
