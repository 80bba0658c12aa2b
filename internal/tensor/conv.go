package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling
// window applied to an input of shape [C, H, W].
type ConvGeom struct {
	InC, InH, InW int // input channels and spatial size
	KH, KW        int // kernel size
	StrideH       int
	StrideW       int
	PadH          int
	PadW          int
}

// OutH returns the output height of the convolution.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width of the convolution.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KW)/g.StrideW + 1 }

// Validate reports an error when the geometry is degenerate.
func (g ConvGeom) Validate() error {
	switch {
	case g.InC <= 0 || g.InH <= 0 || g.InW <= 0:
		return fmt.Errorf("tensor: conv input dims must be positive, got C=%d H=%d W=%d", g.InC, g.InH, g.InW)
	case g.KH <= 0 || g.KW <= 0:
		return fmt.Errorf("tensor: conv kernel dims must be positive, got %dx%d", g.KH, g.KW)
	case g.StrideH <= 0 || g.StrideW <= 0:
		return fmt.Errorf("tensor: conv strides must be positive, got %dx%d", g.StrideH, g.StrideW)
	case g.PadH < 0 || g.PadW < 0:
		return fmt.Errorf("tensor: conv padding must be non-negative, got %dx%d", g.PadH, g.PadW)
	case g.OutH() <= 0 || g.OutW() <= 0:
		return fmt.Errorf("tensor: conv output is empty for geometry %+v", g)
	}
	return nil
}

// PatchTable is the patch-index table of a convolution: entry
// p*patch+t is the flat input index that im2col row p (an output
// position), column t (a channel-major kernel tap) would read, or -1
// where that tap falls in the padding. The three conv kernels read a
// sample's input through it, so no patch matrix is ever built.
//
// Each kernel keeps, for every output element, the summation order of
// the im2col formulation it replaces: start from +0, add in ascending
// order, no fused multiply-add, no reassociation. The forward and
// weight-gradient kernels skip zero inputs (padding is a zero input),
// as matMulRows and MatMulATInto do; the input-gradient dot products
// skip nothing, as MatMulBTInto does.
type PatchTable struct {
	idx              []int32
	positions, patch int
	inSize           int
}

// NewPatchTable builds the table of a valid geometry g.
func NewPatchTable(g ConvGeom) *PatchTable {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	outH, outW := g.OutH(), g.OutW()
	pt := &PatchTable{
		positions: outH * outW,
		patch:     g.InC * g.KH * g.KW,
		inSize:    g.InC * g.InH * g.InW,
	}
	pt.idx = make([]int32, 0, pt.positions*pt.patch)
	for oy := 0; oy < outH; oy++ {
		iy0 := oy*g.StrideH - g.PadH
		for ox := 0; ox < outW; ox++ {
			ix0 := ox*g.StrideW - g.PadW
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.KH; ky++ {
					iy := iy0 + ky
					for kx := 0; kx < g.KW; kx++ {
						ix := ix0 + kx
						if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
							pt.idx = append(pt.idx, -1)
						} else {
							pt.idx = append(pt.idx, int32((c*g.InH+iy)*g.InW+ix))
						}
					}
				}
			}
		}
	}
	return pt
}

// check panics unless img holds one sample of the table's input, byPos
// is [positions, n] and byTap is [patch, n] for the same n.
func (pt *PatchTable) check(op string, img []float64, byPos, byTap *Tensor) {
	if len(img) != pt.inSize {
		panic(fmt.Sprintf("tensor: PatchTable.%s image size %d, want %d", op, len(img), pt.inSize))
	}
	if len(byPos.shape) != 2 || len(byTap.shape) != 2 ||
		byPos.shape[0] != pt.positions || byTap.shape[0] != pt.patch || byPos.shape[1] != byTap.shape[1] {
		panic(fmt.Sprintf("tensor: PatchTable.%s operand shapes %v and %v, want [%d n] and [%d n]",
			op, byPos.shape, byTap.shape, pt.positions, pt.patch))
	}
}

// ForwardInto computes dst = P(x) @ w, the position-major convolution
// of the sample image x (flat [C,H,W]): dst is [positions, n] and w is
// [patch, n]. It gathers each position's non-zero, non-padding inputs
// straight from x and sweeps them with matMulRows' register blocks,
// so each output element equals MatMulInto(dst, Im2Col(x), w) bit for
// bit.
func (pt *PatchTable) ForwardInto(dst *Tensor, x []float64, w *Tensor) {
	n := w.shape[1]
	pt.check("ForwardInto", x, dst, w)
	var vals [matMulNZChunk]float64
	var offs [matMulNZChunk]int
	for p := 0; p < pt.positions; p++ {
		row := pt.idx[p*pt.patch : (p+1)*pt.patch]
		drow := dst.data[p*n : (p+1)*n]
		clear(drow)
		for t0 := 0; t0 < pt.patch; t0 += matMulNZChunk {
			cnt := gatherPatch(&vals, &offs, x, row[t0:min(t0+matMulNZChunk, pt.patch)], t0*n, n)
			accumRow(drow, vals[:cnt], offs[:cnt], w.data)
		}
	}
}

// WeightGradInto computes dst = P(x)ᵀ @ dpos, the weight gradient of
// one sample: dst is [patch, n] and dpos is [positions, n]. Row t of
// dst gathers column t of the patch matrix (the inputs tap t meets at
// each position, in ascending position order, zeros and padding
// skipped) and sweeps the dpos rows with the register blocks, so each
// element equals MatMulATInto(dst, Im2Col(x), dpos) bit for bit.
func (pt *PatchTable) WeightGradInto(dst *Tensor, x []float64, dpos *Tensor) {
	n := dpos.shape[1]
	pt.check("WeightGradInto", x, dpos, dst)
	var vals [matMulNZChunk]float64
	var offs [matMulNZChunk]int
	for t := 0; t < pt.patch; t++ {
		drow := dst.data[t*n : (t+1)*n]
		clear(drow)
		for p0 := 0; p0 < pt.positions; p0 += matMulNZChunk {
			p1 := min(p0+matMulNZChunk, pt.positions)
			cnt := gatherTap(&vals, &offs, x, pt.idx[p0*pt.patch+t:], pt.patch, p1-p0, p0*n, n)
			accumRow(drow, vals[:cnt], offs[:cnt], dpos.data)
		}
	}
}

// InputGradInto computes the input gradient of one sample, dx =
// Col2Im(dpos @ wᵀ) with dx flat [C,H,W], dpos [positions, n] and w
// [patch, n], without the intermediate matrix: for every non-padding
// (p, t) in ascending order it adds dot(dpos[p], w[t]) to dx at the
// input index tap t reads. Each dot starts from +0 and adds every
// product, zeros included, in ascending j, as MatMulBTInto does; the
// dots padding would discard are never computed.
func (pt *PatchTable) InputGradInto(dx []float64, dpos, w *Tensor) {
	n := w.shape[1]
	pt.check("InputGradInto", dx, dpos, w)
	clear(dx)
	for p := 0; p < pt.positions; p++ {
		dp := dpos.data[p*n : (p+1)*n : (p+1)*n]
		for t, ix := range pt.idx[p*pt.patch : (p+1)*pt.patch] {
			if ix < 0 {
				continue
			}
			wr := w.data[t*n : (t+1)*n : (t+1)*n]
			s := 0.0
			for j, v := range dp {
				s += v * wr[j]
			}
			dx[ix] += s
		}
	}
}

// gatherPatch is gatherNonZero for one patch-matrix row read through
// the table: it stores the non-zero inputs x[idx[t]] (padding, -1,
// skipped) with their w row offsets (off for idx[0], stepping by n).
//
//go:noinline
func gatherPatch(vals *[matMulNZChunk]float64, offs *[matMulNZChunk]int, x []float64, idx []int32, off, n int) int {
	cnt := 0
	for _, ix := range idx {
		if ix >= 0 {
			v := x[ix]
			vals[cnt&(matMulNZChunk-1)] = v
			offs[cnt&(matMulNZChunk-1)] = off
			if v != 0 {
				cnt++
			}
		}
		off += n
	}
	return cnt
}

// gatherTap is gatherPatch down one patch-matrix column: it reads
// count table entries idx[0], idx[stride], ... in ascending position
// order.
//
//go:noinline
func gatherTap(vals *[matMulNZChunk]float64, offs *[matMulNZChunk]int, x []float64, idx []int32, stride, count, off, n int) int {
	cnt := 0
	for q := 0; q < count; q++ {
		if ix := idx[q*stride]; ix >= 0 {
			v := x[ix]
			vals[cnt&(matMulNZChunk-1)] = v
			offs[cnt&(matMulNZChunk-1)] = off
			if v != 0 {
				cnt++
			}
		}
		off += n
	}
	return cnt
}
