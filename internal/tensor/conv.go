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
// order, no reassociation. The forward and weight-gradient kernels skip
// zero inputs (padding is a zero input), as matMulRows and MatMulATInto
// do. The input-gradient dots of MatMulBTInto skip nothing.
//
// The two backward kernels may also skip the terms of ±0 dpos entries.
// That is exact under a finiteness guard: a sum that starts at +0 and
// adds in order is never -0, so adding a ±0 product leaves it
// unchanged, and a product is ±0 when one factor is ±0 and the other
// finite. So the weight gradient skips ±0 dpos entries only when its
// sample's input is all finite, and the input gradient only when the
// weights are (ConvScratch.Prepare checks them once per backward call).
// Where a guard fails, the same sweep adds every dpos entry, which is
// the im2col arithmetic term for term.
//
// "No fused multiply-add" holds where the compiler does not fuse, as on
// amd64. Go may fuse x*y+z into one rounding, and on arm64 it does:
// accum6 compiles to six FMADD there.
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

// ConvScratch is one conv layer's scratch for the two backward kernels:
// the entries of one dpos row that a kernel adds, one position's
// input-gradient dots, and whether the weights Prepare checked are all
// finite. A layer keeps one, so after its first Prepare the kernels
// allocate nothing.
type ConvScratch struct {
	vals    []float64 // the dpos entries a kernel adds...
	cols    []int     // ...and their columns, ascending
	acc     []float64 // one position's input-gradient dot per tap
	w       *Tensor   // the weights Prepare checked
	finiteW bool      // ...are all finite
}

// Prepare readies sc for one backward call of a layer with table pt and
// weights w ([patch, n]): it sizes the lists and checks once whether
// InputGradInto may skip the terms of ±0 dpos entries.
func (sc *ConvScratch) Prepare(pt *PatchTable, w *Tensor) {
	n := w.shape[1]
	if cap(sc.vals) < n {
		sc.vals, sc.cols = make([]float64, n), make([]int, n)
	}
	sc.vals, sc.cols = sc.vals[:n], sc.cols[:n]
	if cap(sc.acc) < pt.patch {
		sc.acc = make([]float64, pt.patch)
	}
	sc.acc = sc.acc[:pt.patch]
	sc.w, sc.finiteW = w, allFinite(w.data)
}

// allFinite reports whether no element of a is ±Inf or NaN.
func allFinite(a []float64) bool {
	for _, v := range a {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// termRow stores the entries of row a kernel adds in sc.vals and their
// columns in sc.cols, and returns how many: every entry if keepZeros,
// else the non-zero ones (NaN included).
func (sc *ConvScratch) termRow(row []float64, keepZeros bool) int {
	vals, cols := sc.vals[:len(row)], sc.cols[:len(row)]
	cnt := 0
	for j, v := range row {
		vals[cnt] = v
		cols[cnt] = j
		if v != 0 || keepZeros {
			cnt++
		}
	}
	return cnt
}

// WeightGradInto computes dst = P(x)ᵀ @ dpos, the weight gradient of
// one sample: dst is [patch, n] and dpos is [positions, n]. Each
// element equals MatMulATInto(dst, Im2Col(x), dpos) bit for bit: it
// adds x·dpos over the positions in ascending order, zero inputs and
// padding skipped. Each position adds the outer product of its non-zero
// inputs and its dpos row; when x is all finite, the row's ±0 entries
// are skipped too.
func (pt *PatchTable) WeightGradInto(dst *Tensor, x []float64, dpos *Tensor, sc *ConvScratch) {
	pt.check("WeightGradInto", x, dpos, dst)
	pt.weightGrad(dst, x, dpos, sc, !allFinite(x))
}

// weightGrad is WeightGradInto with the zero-term choice made by the
// caller: keepZeros adds the terms of ±0 dpos entries.
func (pt *PatchTable) weightGrad(dst *Tensor, x []float64, dpos *Tensor, sc *ConvScratch, keepZeros bool) {
	n := dpos.shape[1]
	var vals [matMulNZChunk]float64
	var offs [matMulNZChunk]int
	clear(dst.data)
	for p := 0; p < pt.positions; p++ {
		k := sc.termRow(dpos.data[p*n:(p+1)*n], keepZeros)
		if k == 0 {
			continue
		}
		row := pt.idx[p*pt.patch : (p+1)*pt.patch]
		for t0 := 0; t0 < pt.patch; t0 += matMulNZChunk {
			cnt := gatherPatch(&vals, &offs, x, row[t0:min(t0+matMulNZChunk, pt.patch)], t0*n, n)
			i := 0
			for ; i+1 < k; i += 2 {
				d0, d1 := sc.vals[i], sc.vals[i+1]
				c0, c1 := dst.data[sc.cols[i]:], dst.data[sc.cols[i+1]:]
				for q, v := range vals[:cnt] {
					o := offs[q]
					c0[o] += v * d0
					c1[o] += v * d1
				}
			}
			if i < k {
				d, col := sc.vals[i], dst.data[sc.cols[i]:]
				for q, v := range vals[:cnt] {
					col[offs[q]] += v * d
				}
			}
		}
	}
}

// InputGradInto computes the input gradient of one sample, dx =
// Col2Im(dpos @ wᵀ) with dx flat [C,H,W], dpos [positions, n] and w
// [patch, n], without the intermediate matrix: for every non-padding
// (p, t) in ascending order it adds dot(dpos[p], w[t]) to dx at the
// input index tap t reads. Each dot starts from +0 and adds its
// products in ascending j, as MatMulBTInto does; the dots padding would
// discard are never added. When sc found w all finite, each dot skips
// the products of ±0 dpos entries, and a position with none adds
// nothing. sc must have been prepared with w.
func (pt *PatchTable) InputGradInto(dx []float64, dpos, w *Tensor, sc *ConvScratch) {
	pt.check("InputGradInto", dx, dpos, w)
	if sc.w != w {
		panic("tensor: PatchTable.InputGradInto weights are not those ConvScratch.Prepare checked")
	}
	pt.inputGrad(dx, dpos, w, sc, !sc.finiteW)
}

// inputGrad is InputGradInto with the zero-term choice made by the
// caller: keepZeros adds the products of ±0 dpos entries.
func (pt *PatchTable) inputGrad(dx []float64, dpos, w *Tensor, sc *ConvScratch, keepZeros bool) {
	n := w.shape[1]
	clear(dx)
	for p := 0; p < pt.positions; p++ {
		k := sc.termRow(dpos.data[p*n:(p+1)*n], keepZeros)
		if k == 0 {
			continue
		}
		// The dots of all taps at once, one dpos entry at a time:
		// acc[t] still adds its products in ascending j.
		row := pt.idx[p*pt.patch : (p+1)*pt.patch]
		acc := sc.acc[:len(row)]
		clear(acc)
		i := 0
		for ; i+1 < k; i += 2 {
			d0, d1 := sc.vals[i], sc.vals[i+1]
			w0, w1 := w.data[sc.cols[i]:], w.data[sc.cols[i+1]:]
			for t := range acc {
				acc[t] = acc[t] + d0*w0[t*n] + d1*w1[t*n]
			}
		}
		if i < k {
			d, wc := sc.vals[i], w.data[sc.cols[i]:]
			for t := range acc {
				acc[t] += d * wc[t*n]
			}
		}
		for t, ix := range row {
			if ix >= 0 {
				dx[ix] += acc[t]
			}
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
