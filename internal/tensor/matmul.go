package tensor

import "fmt"

// MatMul returns a @ b for rank-2 tensors a[m,k] and b[k,n].
// The kernel is written ikj-order so the inner loop streams both the
// output row and the b row sequentially, which keeps it cache-friendly
// without external BLAS.
func MatMul(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v @ %v", a.shape, b.shape))
	}
	out := New(m, n)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a @ b, reusing dst's storage. dst must have
// shape [a.rows, b.cols] and must not alias a or b.
func MatMulInto(dst, a, b *Tensor) {
	m, n := a.shape[0], b.shape[1]
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	matMulRows(dst, a, b, 0, m)
}

// Cache-blocking parameters for the tiled matmul kernel. A b-tile is
// blockK x blockN float64s (256 KiB), sized to stay resident in L2
// while every row of the chunk streams over it. Blocking only pays once
// b itself outgrows the cache, so small products keep the simple
// streaming kernel (and its exact per-op cost profile).
const (
	matMulBlockK = 128
	matMulBlockN = 256
	// matMulBlockMinFloats is the size of b (k*n elements) above which
	// matMulRows switches to the tiled kernel.
	matMulBlockMinFloats = matMulBlockK * matMulBlockN
)

// matMulNZChunk is how many inputs of one a row the streaming kernel
// gathers at a time (a fixed-size stack buffer keeps it allocation
// free).
const matMulNZChunk = 256

// matMulRows computes rows [r0, r1) of dst = a @ b. Each output row is
// written exactly once and touched by exactly one caller, so disjoint
// row ranges may run concurrently and the result is bit-identical to a
// serial pass whatever the partitioning. Large products dispatch to the
// cache-blocked kernel; every output element starts from +0 and
// accumulates its products in ascending p order with the same
// zero-input skip in both kernels, so the choice never changes the
// output bits.
//
// The streaming kernel is register-blocked: it gathers the non-zero
// inputs of a row (with their b row offsets) once, then sweeps them for
// each block of 6 output columns, and for a 4-, 2- and 1-column tail,
// keeping the block's sums in local accumulators instead of re-reading
// and re-writing dst once per p. Rows longer than matMulNZChunk are
// gathered a chunk at a time, the sums carried across chunks through
// dst.
func matMulRows(dst, a, b *Tensor, r0, r1 int) {
	k, n := a.shape[1], b.shape[1]
	if k*n > matMulBlockMinFloats {
		matMulRowsBlocked(dst, a, b, r0, r1)
		return
	}
	var vals [matMulNZChunk]float64
	var offs [matMulNZChunk]int
	for i := r0; i < r1; i++ {
		arow := a.data[i*k : (i+1)*k]
		drow := dst.data[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
		for p0 := 0; p0 < k; p0 += matMulNZChunk {
			cnt := gatherNonZero(&vals, &offs, arow[p0:min(p0+matMulNZChunk, k)], p0*n, n)
			accumRow(drow, vals[:cnt], offs[:cnt], b.data)
		}
	}
}

// accumRow adds, for each gathered input t in order, vals[t] times the
// b row at offs[t] to drow (b has len(drow) columns): blocks of 6
// columns, then a 4-, 2- and 1-column tail, each summed in registers
// across the whole sweep.
func accumRow(drow, vals []float64, offs []int, b []float64) {
	n := len(drow)
	j := 0
	for ; j+6 <= n; j += 6 {
		accum6(drow[j:j+6:j+6], vals, offs, b[j:])
	}
	if j+4 <= n {
		accum4(drow[j:j+4:j+4], vals, offs, b[j:])
		j += 4
	}
	if j+2 <= n {
		accum2(drow[j:j+2:j+2], vals, offs, b[j:])
		j += 2
	}
	if j < n {
		accum1(drow[j:j+1], vals, offs, b[j:])
	}
}

// gatherNonZero stores the non-zero entries of arow in vals, each with
// the offset of its b row in offs (off for arow[0], stepping by n), and
// returns how many it stored. len(arow) must not exceed matMulNZChunk,
// so cnt stays below it and the index mask only drops the bounds
// check. It is kept out of line: inlined into matMulRows, its loop counters
// were spilled to the stack on every iteration.
//
//go:noinline
func gatherNonZero(vals *[matMulNZChunk]float64, offs *[matMulNZChunk]int, arow []float64, off, n int) int {
	cnt := 0
	for _, av := range arow {
		vals[cnt&(matMulNZChunk-1)] = av
		offs[cnt&(matMulNZChunk-1)] = off
		off += n
		if av != 0 {
			cnt++
		}
	}
	return cnt
}

// accum6 adds, for each gathered input t in order, vals[t] times the
// b row at offs[t] to the 6 sums in d, holding them in registers across
// the sweep. accum4, accum2 and accum1 do the same for narrower blocks.
func accum6(d, vals []float64, offs []int, b []float64) {
	c0, c1, c2, c3, c4, c5 := d[0], d[1], d[2], d[3], d[4], d[5]
	for t, av := range vals {
		o := offs[t]
		bb := b[o : o+6 : o+6]
		c0 += av * bb[0]
		c1 += av * bb[1]
		c2 += av * bb[2]
		c3 += av * bb[3]
		c4 += av * bb[4]
		c5 += av * bb[5]
	}
	d[0], d[1], d[2], d[3], d[4], d[5] = c0, c1, c2, c3, c4, c5
}

func accum4(d, vals []float64, offs []int, b []float64) {
	c0, c1, c2, c3 := d[0], d[1], d[2], d[3]
	for t, av := range vals {
		o := offs[t]
		bb := b[o : o+4 : o+4]
		c0 += av * bb[0]
		c1 += av * bb[1]
		c2 += av * bb[2]
		c3 += av * bb[3]
	}
	d[0], d[1], d[2], d[3] = c0, c1, c2, c3
}

func accum2(d, vals []float64, offs []int, b []float64) {
	c0, c1 := d[0], d[1]
	for t, av := range vals {
		o := offs[t]
		bb := b[o : o+2 : o+2]
		c0 += av * bb[0]
		c1 += av * bb[1]
	}
	d[0], d[1] = c0, c1
}

func accum1(d, vals []float64, offs []int, b []float64) {
	c := d[0]
	for t, av := range vals {
		c += av * b[offs[t]]
	}
	d[0] = c
}

// matMulRowsBlocked is the tiled variant of matMulRows: b is walked one
// blockK x blockN tile at a time so each tile is loaded from memory
// once and reused by every row of the chunk while it sits in cache.
// The p-tile loop is outermost and ascends, and within a tile p
// ascends, so each dst element still receives its partial products in
// exactly the order of the streaming kernel.
func matMulRowsBlocked(dst, a, b *Tensor, r0, r1 int) {
	k, n := a.shape[1], b.shape[1]
	for i := r0; i < r1; i++ {
		drow := dst.data[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
	}
	for p0 := 0; p0 < k; p0 += matMulBlockK {
		p1 := p0 + matMulBlockK
		if p1 > k {
			p1 = k
		}
		for j0 := 0; j0 < n; j0 += matMulBlockN {
			j1 := j0 + matMulBlockN
			if j1 > n {
				j1 = n
			}
			for i := r0; i < r1; i++ {
				arow := a.data[i*k : (i+1)*k]
				drow := dst.data[i*n+j0 : i*n+j1]
				for p := p0; p < p1; p++ {
					av := arow[p]
					if av == 0 {
						continue
					}
					brow := b.data[p*n+j0 : p*n+j1]
					for j, bv := range brow {
						drow[j] += av * bv
					}
				}
			}
		}
	}
}

// MatMulATInto computes dst = aᵀ @ b where a is [k,m] and b is [k,n],
// producing dst [m,n]. Used by dense/conv backward passes to avoid
// materialising explicit transposes.
func MatMulATInto(dst, a, b *Tensor) {
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulATInto inner dimensions differ: %vᵀ @ %v", a.shape, b.shape))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulATInto dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	dst.Zero()
	for p := 0; p < k; p++ {
		arow := a.data[p*m : (p+1)*m]
		brow := b.data[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.data[i*n : (i+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMulBTInto computes dst = a @ bᵀ where a is [m,k] and b is [n,k],
// producing dst [m,n]. Each output element is a plain dot product that
// starts from +0 and adds every product (zeros included) in ascending
// p; blocks of 4 output columns are summed together in local
// accumulators so each a row is read once per block.
func MatMulBTInto(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulBTInto inner dimensions differ: %v @ %vᵀ", a.shape, b.shape))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulBTInto dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		drow := dst.data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.data[j*k : (j+1)*k]
			b1 := b.data[(j+1)*k : (j+2)*k]
			b2 := b.data[(j+2)*k : (j+3)*k]
			b3 := b.data[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b.data[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				s += av * brow[p]
			}
			drow[j] = s
		}
	}
}
