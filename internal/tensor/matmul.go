package tensor

import "fmt"

// The matmul kernels are cache-blocked and register-tiled: C is
// walked in mrTile×nrTile micro-tiles whose partial sums live in
// registers, and the active B panel is packed into a dense per-worker
// k×nrTile strip so the inner loop streams contiguous memory
// whatever the layout of B. Workers split the row range via Parallel.
//
// One packed-panel path serves all three shapes a convolution needs:
// C = A·B (forward), C = Aᵀ·B (input gradient) and C = A·Bᵀ (weight
// gradient). A is addressed through a row stride and a k stride, so
// Aᵀ is read in place; B is packed from rows (packPanelB) or from
// columns (packPanelBT). Full 4×4 tiles run tile4x4, a Go-assembly
// kernel on amd64 and tileGo elsewhere; rows left over after the
// 4-row tiles run the scalar mulEdge.
//
// Numerical contract (what the validation tests pin down):
//   - Each output element is an independent dot product accumulated
//     in index order p = 0..k-1 from +0 in a single float32
//     accumulator, so results are bit-identical across GOMAXPROCS
//     settings and tile boundaries, and bit-identical to
//     MatMulRefInto for the non-accumulating case.
//   - On amd64 one SIMD lane holds one output element: per p the
//     tile multiplies with MULPS, rounding the product to float32,
//     then adds with ADDPS. Only baseline SSE is used, so the bits
//     match the scalar Go code at the default GOAMD64=v1. The Go
//     kernels write every product as float32(a*b), which forbids the
//     compiler from fusing it into an FMA, so they match the
//     assembly at any GOAMD64 level and on every architecture.
//   - IEEE semantics are preserved: there is no zero-skip, so a 0 in
//     A against a NaN/Inf in B propagates NaN into C exactly as the
//     arithmetic demands. (An earlier kernel skipped a == 0 rows as
//     an optimisation, silently converting 0×NaN to 0 and masking
//     divergence from the loss-scaling/NaN-detection path.) Which
//     NaN payload comes out is not promised, only where NaN appears.
const (
	mrTile = 4 // rows per micro-tile (register-blocked)
	nrTile = 4 // columns per micro-tile (= packed panel width)
)

// MatMul computes C = A·B for A [m,k] and B [k,n], returning C [m,n].
func MatMul(a, b *Tensor) *Tensor {
	m, _, n := checkMatMul(a, b)
	c := New(m, n)
	MatMulInto(c, a, b, false)
	return c
}

// MatMulInto computes C = A·B (or C += A·B when accumulate) into an
// existing [m,n] tensor, allocation-free in steady state: the only
// working memory is a per-worker B panel drawn from an internal pool,
// and the serial path calls the worker directly so no closure is
// allocated.
//
//seglint:hotpath dense forward/backward kernel; 0-alloc on the serial path per the step budget
func MatMulInto(c, a, b *Tensor, accumulate bool) {
	m, k, n := checkMatMul(a, b)
	checkMatMulOut(c, m, n, "matmul")
	cd, ad, bd := c.Data, a.Data, b.Data
	if parallelDegree(m) <= 1 {
		matmulRows(cd, ad, bd, k, n, 0, m, accumulate)
		return
	}
	Parallel(m, func(lo, hi int) { //seglint:ignore hotalloc one closure per parallel launch; the 0-alloc budget path (GOMAXPROCS=1) bypasses it
		matmulRows(cd, ad, bd, k, n, lo, hi, accumulate)
	})
}

// matmulRows is the per-worker body of MatMulInto: rows [lo,hi) of
// C = A·B for A [m,k] and B [k,n].
func matmulRows(cd, ad, bd []float32, k, n, lo, hi int, accumulate bool) {
	gemmRows(cd, ad, bd, k, 1, k, n, false, lo, hi, accumulate)
}

// matmulATRows computes rows [lo,hi) of C = Aᵀ·B for A [k,m] and
// B [k,n] — the shape conv backward needs for input gradients. Aᵀ is
// read in place through its strides.
func matmulATRows(cd, ad, bd []float32, k, m, n, lo, hi int, accumulate bool) {
	gemmRows(cd, ad, bd, 1, m, k, n, false, lo, hi, accumulate)
}

// matmulBTRows computes rows [lo,hi) of C = A·Bᵀ for A [m,k] and
// B [n,k] — the shape conv backward needs for weight gradients.
func matmulBTRows(cd, ad, bd []float32, k, n, lo, hi int, accumulate bool) {
	gemmRows(cd, ad, bd, k, 1, k, n, true, lo, hi, accumulate)
}

// gemmRows computes rows [lo,hi) of C [·,n] (+)= A·B over k, where
// A[i,p] is ad[i*ars+p*aps] and B is [k,n], or [n,k] when bt. One B
// panel is packed at a time into pooled scratch and swept by every
// row tile.
func gemmRows(cd, ad, bd []float32, ars, aps, k, n int, bt bool, lo, hi int, acc bool) {
	if k == 0 {
		ars = 0 // A may be empty; no element of it is read
	}
	panel := kernelScratch.GetRaw(k * nrTile)
	bp := panel.Data
	for j0 := 0; j0 < n; j0 += nrTile {
		jw := min(nrTile, n-j0)
		if bt {
			packPanelBT(bp, bd, k, j0, jw)
		} else {
			packPanelB(bp, bd, k, n, j0, jw)
		}
		i := lo
		for ; i+mrTile <= hi; i += mrTile {
			microTile(cd[i*n+j0:], n, ad[i*ars:], ars, aps, bp, k, jw, acc)
		}
		if i < hi {
			mulEdge(cd[i*n+j0:], n, ad[i*ars:], ars, aps, hi-i, bp, k, jw, acc)
		}
	}
	kernelScratch.Put(panel)
}

// MatMulRefInto is the unblocked reference kernel the tiled paths are
// validated against (and the baseline cmd/segbench reports speedup
// over): plain row-parallel loops, k-outer so B streams row-wise, no
// tiling, no packing, full IEEE propagation.
func MatMulRefInto(c, a, b *Tensor, accumulate bool) {
	m, k, n := checkMatMul(a, b)
	checkMatMulOut(c, m, n, "matmul")
	if !accumulate {
		c.Zero()
	}
	Parallel(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			crow := c.Data[i*n : (i+1)*n]
			for p, av := range arow {
				brow := b.Data[p*n : (p+1)*n]
				for j, bv := range brow {
					crow[j] += float32(av * bv)
				}
			}
		}
	})
}

func checkMatMul(a, b *Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: matmul needs rank-2, got %v × %v", a.Shape, b.Shape))
	}
	if a.Dim(1) != b.Dim(0) {
		panic(fmt.Sprintf("tensor: matmul inner dims %v × %v", a.Shape, b.Shape))
	}
	return a.Dim(0), a.Dim(1), b.Dim(1)
}

func checkMatMulOut(c *Tensor, m, n int, op string) {
	if len(c.Shape) != 2 || c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: %s out %v, want [%d %d]", op, c.Shape, m, n))
	}
}

// packPanelB copies the k×jw column strip of B starting at column j0
// into bp as a dense k×nrTile panel (zero-padded past jw; the pad
// columns are computed but never written back).
func packPanelB(bp, b []float32, k, n, j0, jw int) {
	if jw == nrTile {
		for p := 0; p < k; p++ {
			src := b[p*n+j0 : p*n+j0+nrTile : p*n+j0+nrTile]
			dst := bp[p*nrTile : p*nrTile+nrTile : p*nrTile+nrTile]
			dst[0], dst[1], dst[2], dst[3] = src[0], src[1], src[2], src[3]
		}
		return
	}
	for p := 0; p < k; p++ {
		dst := bp[p*nrTile : p*nrTile+nrTile]
		copy(dst, b[p*n+j0:p*n+j0+jw])
		for q := jw; q < nrTile; q++ {
			dst[q] = 0
		}
	}
}

// packPanelBT copies rows j0..j0+jw-1 of B [n,k] into bp as a dense
// k×nrTile panel of their transpose (zero-padded past jw), so the
// weight-gradient product reuses the packed-B tile.
func packPanelBT(bp, b []float32, k, j0, jw int) {
	if jw == nrTile {
		r0 := b[(j0+0)*k : (j0+1)*k]
		r1 := b[(j0+1)*k : (j0+2)*k]
		r2 := b[(j0+2)*k : (j0+3)*k]
		r3 := b[(j0+3)*k : (j0+4)*k]
		for p := range r0 {
			dst := (*[nrTile]float32)(bp[p*nrTile:])
			dst[0], dst[1], dst[2], dst[3] = r0[p], r1[p], r2[p], r3[p]
		}
		return
	}
	for q := 0; q < nrTile; q++ {
		if q >= jw {
			for p := 0; p < k; p++ {
				bp[p*nrTile+q] = 0
			}
			continue
		}
		for p, v := range b[(j0+q)*k : (j0+q+1)*k] {
			bp[p*nrTile+q] = v
		}
	}
}

// microTile computes one mrTile-row tile of C against a packed panel
// b, writing jw ≤ nrTile columns: c[r*cs+q] (+)= Σ_p a[r*ars+p*aps]·b[p*nrTile+q].
// It checks every bound tile4x4 relies on; a partial panel runs the
// full tile into a stack tile and copies jw columns out.
func microTile(c []float32, cs int, a []float32, ars, aps int, b []float32, k, jw int, acc bool) {
	if k > 0 {
		_ = a[(mrTile-1)*ars+(k-1)*aps]
		_ = b[k*nrTile-1]
	}
	if jw == nrTile {
		_ = c[(mrTile-1)*cs+nrTile-1]
		tile4x4(c, cs, a, ars, aps, b, k, acc) //seglint:ignore hotalloc body-less assembly tile; assembly cannot reach the allocator
		return
	}
	var t [mrTile * nrTile]float32
	tile4x4(t[:], nrTile, a, ars, aps, b, k, false) //seglint:ignore hotalloc body-less assembly tile; assembly cannot reach the allocator
	for r := 0; r < mrTile; r++ {
		crow := c[r*cs : r*cs+jw]
		trow := t[r*nrTile : r*nrTile+jw]
		if acc {
			for q, v := range trow {
				crow[q] += v
			}
		} else {
			copy(crow, trow)
		}
	}
}

// tileGo is the portable 4×4 tile: what tile4x4 computes, in Go. It
// folds p in ascending order into sixteen scalar accumulators (gc
// keeps scalars in registers, not arrays). It is the non-amd64 tile
// and the oracle the assembly is tested against.
func tileGo(c []float32, cs int, a []float32, ars, aps int, b []float32, k int, acc bool) {
	var s00, s01, s02, s03, s10, s11, s12, s13 float32
	var s20, s21, s22, s23, s30, s31, s32, s33 float32
	for p := 0; p < k; p++ {
		bq := (*[nrTile]float32)(b[p*nrTile:])
		a0, a1, a2, a3 := a[p*aps], a[ars+p*aps], a[2*ars+p*aps], a[3*ars+p*aps]
		s00 += float32(a0 * bq[0])
		s01 += float32(a0 * bq[1])
		s02 += float32(a0 * bq[2])
		s03 += float32(a0 * bq[3])
		s10 += float32(a1 * bq[0])
		s11 += float32(a1 * bq[1])
		s12 += float32(a1 * bq[2])
		s13 += float32(a1 * bq[3])
		s20 += float32(a2 * bq[0])
		s21 += float32(a2 * bq[1])
		s22 += float32(a2 * bq[2])
		s23 += float32(a2 * bq[3])
		s30 += float32(a3 * bq[0])
		s31 += float32(a3 * bq[1])
		s32 += float32(a3 * bq[2])
		s33 += float32(a3 * bq[3])
	}
	rows := [mrTile][nrTile]float32{
		{s00, s01, s02, s03},
		{s10, s11, s12, s13},
		{s20, s21, s22, s23},
		{s30, s31, s32, s33},
	}
	for r, sr := range rows {
		crow := (*[nrTile]float32)(c[r*cs:])
		for q, v := range sr {
			if acc {
				crow[q] += v
			} else {
				crow[q] = v
			}
		}
	}
}

// mulEdge handles the iw < mrTile rows left after the full tiles:
// plain per-element dot products in the same p order, so edge
// elements carry identical bits to interior ones.
func mulEdge(c []float32, cs int, a []float32, ars, aps, iw int, b []float32, k, jw int, acc bool) {
	for r := 0; r < iw; r++ {
		crow := c[r*cs : r*cs+jw]
		for q := range crow {
			var s float32
			for p := 0; p < k; p++ {
				s += float32(a[r*ars+p*aps] * b[p*nrTile+q])
			}
			if acc {
				crow[q] += s
			} else {
				crow[q] = s
			}
		}
	}
}
