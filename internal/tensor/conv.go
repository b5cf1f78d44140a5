package tensor

import "fmt"

// ConvSpec parameterises a 2-D convolution. Dilation > 1 gives the
// atrous convolutions DeepLab's ASPP is built from; Groups == C gives
// the depthwise convolutions of Xception-style separable convs.
type ConvSpec struct {
	Stride   int
	Pad      int
	Dilation int
	Groups   int
}

// Canon fills defaults (stride/dilation/groups of 1).
func (s ConvSpec) Canon() ConvSpec {
	if s.Stride == 0 {
		s.Stride = 1
	}
	if s.Dilation == 0 {
		s.Dilation = 1
	}
	if s.Groups == 0 {
		s.Groups = 1
	}
	return s
}

// ConvOutSize returns the output spatial size for one axis.
func ConvOutSize(in, k, stride, pad, dilation int) int {
	eff := (k-1)*dilation + 1
	out := (in+2*pad-eff)/stride + 1
	if out <= 0 {
		panic(fmt.Sprintf("tensor: conv output size %d (in=%d k=%d s=%d p=%d d=%d)", out, in, k, stride, pad, dilation))
	}
	return out
}

// SamePad returns the padding that preserves spatial size for odd
// kernel k at stride 1 and the given dilation — DeepLab's atrous
// convolutions use rate·(k−1)/2.
func SamePad(k, dilation int) int {
	if k%2 == 0 {
		panic("tensor: SamePad needs odd kernel")
	}
	return dilation * (k - 1) / 2
}

func convCheck(x, w *Tensor, s ConvSpec) (n, c, h, wd, f, cg, kh, kw, oh, ow int) {
	if len(x.Shape) != 4 || len(w.Shape) != 4 {
		panic(fmt.Sprintf("tensor: conv needs NCHW x and FCKK w, got %v, %v", x.Shape, w.Shape))
	}
	n, c, h, wd = x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	f, cg, kh, kw = w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	if c%s.Groups != 0 || f%s.Groups != 0 {
		panic(fmt.Sprintf("tensor: groups=%d does not divide C=%d/F=%d", s.Groups, c, f))
	}
	if cg != c/s.Groups {
		panic(fmt.Sprintf("tensor: weight channel dim %d, want C/groups=%d", cg, c/s.Groups))
	}
	oh = ConvOutSize(h, kh, s.Stride, s.Pad, s.Dilation)
	ow = ConvOutSize(wd, kw, s.Stride, s.Pad, s.Dilation)
	return
}

// im2col expands one sample's channel group into a [cg·kh·kw, oh·ow]
// matrix held in col (which must be pre-sized).
func im2col(x *Tensor, sample, chanLo, cg int, kh, kw, oh, ow int, s ConvSpec, col *Tensor) {
	_, _, h, wd := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	spatial := oh * ow
	xBase := (sample*x.Dim(1) + chanLo) * h * wd
	for cc := 0; cc < cg; cc++ {
		chOff := xBase + cc*h*wd
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := ((cc*kh+ky)*kw + kx) * spatial
				off := kx*s.Dilation - s.Pad
				lo, hi := tapSpan(off, s.Stride, wd, ow)
				for oy := 0; oy < oh; oy++ {
					dst := col.Data[row+oy*ow : row+(oy+1)*ow]
					iy := oy*s.Stride - s.Pad + ky*s.Dilation
					if iy < 0 || iy >= h {
						clear(dst)
						continue
					}
					src := x.Data[chOff+iy*wd : chOff+(iy+1)*wd]
					clear(dst[:lo])
					clear(dst[hi:])
					for ox := lo; ox < hi; ox++ {
						dst[ox] = src[ox*s.Stride+off]
					}
				}
			}
		}
	}
}

// col2im scatters a [cg·kh·kw, oh·ow] gradient matrix back into dx,
// accumulating overlaps.
func col2im(dx *Tensor, sample, chanLo, cg int, kh, kw, oh, ow int, s ConvSpec, col *Tensor) {
	h, wd := dx.Dim(2), dx.Dim(3)
	spatial := oh * ow
	dxBase := (sample*dx.Dim(1) + chanLo) * h * wd
	for cc := 0; cc < cg; cc++ {
		chOff := dxBase + cc*h*wd
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := ((cc*kh+ky)*kw + kx) * spatial
				off := kx*s.Dilation - s.Pad
				lo, hi := tapSpan(off, s.Stride, wd, ow)
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.Stride - s.Pad + ky*s.Dilation
					if iy < 0 || iy >= h {
						continue
					}
					src := col.Data[row+oy*ow+lo : row+oy*ow+hi]
					dst := dx.Data[chOff+iy*wd : chOff+(iy+1)*wd]
					for j, v := range src {
						dst[(lo+j)*s.Stride+off] += v
					}
				}
			}
		}
	}
}

// convPath names the kernel a convolution runs on. Every path folds
// each output's terms in the order the im2col path does, padded taps
// included, so the choice never changes a bit of the result.
type convPath int

const (
	convIm2col    convPath = iota // im2col/col2im around the packed GEMM
	convDepthwise                 // 3×3, one channel per group: direct stencil
	convPointwise                 // 1×1, stride 1, no padding: the sample slab is the GEMM operand
)

func convPathOf(cg, fg, kh, kw int, s ConvSpec) convPath {
	switch {
	case cg == 1 && fg == 1 && kh == 3 && kw == 3:
		return convDepthwise
	case kh == 1 && kw == 1 && s.Stride == 1 && s.Pad == 0:
		return convPointwise
	}
	return convIm2col
}

// tapSpan returns the output columns [lo,hi) whose input column
// ox*stride+off lies inside a row of width wd.
func tapSpan(off, stride, wd, ow int) (lo, hi int) {
	if off < 0 {
		lo = (-off + stride - 1) / stride
	}
	if last := wd - 1 - off; last >= 0 {
		hi = min(last/stride+1, ow)
	}
	return min(lo, hi), hi
}

// dwForward computes one depthwise 3×3 output plane op from input
// plane xp and taps wt. Each output folds its nine taps in ascending
// order from +0, a padded tap adding w·0: the terms and order of the
// im2col GEMM, so the plane is bit-identical to it.
func dwForward(op, xp, wt []float32, h, wd, oh, ow int, s ConvSpec) {
	clear(op)
	for t, wv := range wt[:9] {
		off := t%3*s.Dilation - s.Pad
		lo, hi := tapSpan(off, s.Stride, wd, ow)
		z := float32(wv * 0)
		for oy := 0; oy < oh; oy++ {
			orow := op[oy*ow : (oy+1)*ow]
			iy := oy*s.Stride - s.Pad + t/3*s.Dilation
			if iy < 0 || iy >= h {
				for ox := range orow {
					orow[ox] += z
				}
				continue
			}
			row := xp[iy*wd : (iy+1)*wd]
			for ox := range orow[:lo] {
				orow[ox] += z
			}
			for ox := lo; ox < hi; ox++ {
				orow[ox] += float32(wv * row[ox*s.Stride+off])
			}
			for ox := hi; ox < ow; ox++ {
				orow[ox] += z
			}
		}
	}
}

// dwBackward computes one depthwise 3×3 channel's weight gradient dwp
// and adds its input gradient into dxp. dwp[t] folds the outputs in
// ascending order from +0, a padded position adding dout·0, and dxp
// takes tap t's contributions before tap t+1's: the terms and order
// of the im2col path, so both are bit-identical to it.
func dwBackward(dxp, dwp, xp, dop, wt []float32, h, wd, oh, ow int, s ConvSpec) {
	for t, wv := range wt[:9] {
		off := t%3*s.Dilation - s.Pad
		lo, hi := tapSpan(off, s.Stride, wd, ow)
		var g float32
		for oy := 0; oy < oh; oy++ {
			drow := dop[oy*ow : (oy+1)*ow]
			iy := oy*s.Stride - s.Pad + t/3*s.Dilation
			if iy < 0 || iy >= h {
				for _, d := range drow {
					g += float32(d * 0)
				}
				continue
			}
			row := xp[iy*wd : (iy+1)*wd]
			dxrow := dxp[iy*wd : (iy+1)*wd]
			for _, d := range drow[:lo] {
				g += float32(d * 0)
			}
			for ox := lo; ox < hi; ox++ {
				ix := ox*s.Stride + off
				d := drow[ox]
				g += float32(d * row[ix])
				dxrow[ix] += float32(wv * d)
			}
			for _, d := range drow[hi:] {
				g += float32(d * 0)
			}
		}
		dwp[t] = g
	}
}

// Conv2D computes the grouped, dilated 2-D convolution of x [N,C,H,W]
// with w [F, C/groups, KH, KW], returning [N,F,OH,OW].
func Conv2D(x, w *Tensor, spec ConvSpec) *Tensor {
	return Conv2DWS(x, w, spec, nil)
}

// Conv2DWS is Conv2D drawing the output and all internal scratch from
// ws (heap when nil). With a warm workspace the call is
// allocation-free on the serial path; the returned tensor is owned by
// ws and valid until its Reset.
//
//seglint:hotpath conv forward; 0-alloc with a warm workspace on the serial path
func Conv2DWS(x, w *Tensor, spec ConvSpec, ws *Workspace) *Tensor {
	s := spec.Canon()
	n, _, _, _, f, cg, kh, kw, oh, ow := convCheck(x, w, s)
	out := ws.GetRaw(n, f, oh, ow) // every element written below
	fg := f / s.Groups
	if parallelDegree(n) <= 1 {
		conv2DSamples(x, w, out, s, 0, n, fg, cg, kh, kw, oh, ow, ws)
		return out
	}
	Parallel(n, func(lo, hi int) { //seglint:ignore hotalloc one closure per parallel launch; the 0-alloc budget path (GOMAXPROCS=1) bypasses it
		conv2DSamples(x, w, out, s, lo, hi, fg, cg, kh, kw, oh, ow, ws)
	})
	return out
}

// conv2DSamples runs the forward for samples [lo,hi) on the kernel
// the geometry allows (see convPathOf). The matmul is invoked through
// its raw row-worker so no header tensors are built per call.
func conv2DSamples(x, w, out *Tensor, s ConvSpec, lo, hi, fg, cg, kh, kw, oh, ow int, ws *Workspace) {
	switch convPathOf(cg, fg, kh, kw, s) {
	case convDepthwise:
		h, wd := x.Dim(2), x.Dim(3)
		for i := lo; i < hi; i++ {
			for g := 0; g < s.Groups; g++ {
				dwForward(out.Data[(i*s.Groups+g)*oh*ow:][:oh*ow], x.Data[(i*s.Groups+g)*h*wd:][:h*wd],
					w.Data[g*9:][:9], h, wd, oh, ow, s)
			}
		}
	case convPointwise:
		f, spatial := out.Dim(1), oh*ow
		for i := lo; i < hi; i++ {
			for g := 0; g < s.Groups; g++ {
				xSlab := x.Data[(i*s.Groups+g)*cg*spatial : (i*s.Groups+g+1)*cg*spatial]
				outSlab := out.Data[(i*f+g*fg)*spatial : (i*f+(g+1)*fg)*spatial]
				matmulRows(outSlab, w.Data[g*fg*cg:(g+1)*fg*cg], xSlab, cg, spatial, 0, fg, false)
			}
		}
	default:
		conv2DIm2col(x, w, out, s, lo, hi, fg, cg, kh, kw, oh, ow, ws)
	}
}

// conv2DIm2col is the general forward: each sample's channel group is
// expanded by im2col and multiplied by the group's filters.
func conv2DIm2col(x, w, out *Tensor, s ConvSpec, lo, hi, fg, cg, kh, kw, oh, ow int, ws *Workspace) {
	f := out.Dim(1)
	spatial := oh * ow
	ckk := cg * kh * kw
	col := ws.GetRaw(ckk, spatial) // im2col writes every element
	for i := lo; i < hi; i++ {
		for g := 0; g < s.Groups; g++ {
			im2col(x, i, g*cg, cg, kh, kw, oh, ow, s, col)
			wSlab := w.Data[g*fg*ckk : (g+1)*fg*ckk]
			outSlab := out.Data[(i*f+g*fg)*spatial : (i*f+(g+1)*fg)*spatial]
			matmulRows(outSlab, wSlab, col.Data, ckk, spatial, 0, fg, false)
		}
	}
	ws.Put(col)
}

// Conv2DBackward returns gradients (dx, dw) of the convolution given
// upstream gradient dout [N,F,OH,OW].
func Conv2DBackward(x, w, dout *Tensor, spec ConvSpec) (dx, dw *Tensor) {
	return Conv2DBackwardWS(x, w, dout, spec, nil)
}

// Conv2DBackwardWS is Conv2DBackward drawing outputs and scratch from
// ws (heap when nil).
//
// Weight gradients are accumulated deterministically: each sample's
// dW contribution lands in its own partial buffer, and the partials
// are merged in ascending sample order with the element range split
// across workers. Every dw element therefore folds its samples in the
// exact order the GOMAXPROCS=1 serial loop would, so the result is
// bit-identical regardless of worker count — unlike the previous
// per-worker partials appended under a mutex, whose merge order
// depended on goroutine scheduling. (A pairwise tree reduction was
// rejected: rebalancing the fold tree changes float associativity, so
// it cannot be bit-identical to the serial merge it replaces.)
//
//seglint:hotpath conv backward; 0-alloc with a warm workspace on the serial path
func Conv2DBackwardWS(x, w, dout *Tensor, spec ConvSpec, ws *Workspace) (dx, dw *Tensor) {
	s := spec.Canon()
	n, c, h, wd, f, cg, kh, kw, oh, ow := convCheck(x, w, s)
	if dout.Dim(0) != n || dout.Dim(1) != f || dout.Dim(2) != oh || dout.Dim(3) != ow {
		panic(fmt.Sprintf("tensor: conv backward dout %v, want [%d %d %d %d]", dout.Shape, n, f, oh, ow))
	}
	// Locals, not the named results: a closure capturing a named
	// result forces it to be heap-boxed on every call.
	dxT := ws.Get(n, c, h, wd)      // zeroed: col2im accumulates overlaps
	dwT := ws.GetRaw(f, cg, kh, kw) // every element written by the merge
	fg := f / s.Groups
	psz := f * cg * kh * kw
	partials := ws.GetRaw(n, f, cg, kh, kw)
	if parallelDegree(n) <= 1 {
		convBackwardSamples(x, w, dout, dxT, partials, s, 0, n, fg, cg, kh, kw, oh, ow, ws)
	} else {
		Parallel(n, func(lo, hi int) { //seglint:ignore hotalloc one closure per parallel launch; the 0-alloc budget path (GOMAXPROCS=1) bypasses it
			convBackwardSamples(x, w, dout, dxT, partials, s, lo, hi, fg, cg, kh, kw, oh, ow, ws)
		})
	}
	dwd, pd := dwT.Data, partials.Data
	if parallelDegree(psz) <= 1 {
		mergeSamplePartials(dwd, pd, n, 0, psz)
	} else {
		Parallel(psz, func(lo, hi int) { //seglint:ignore hotalloc one closure per parallel launch; the 0-alloc budget path (GOMAXPROCS=1) bypasses it
			mergeSamplePartials(dwd, pd, n, lo, hi)
		})
	}
	ws.Put(partials)
	return dxT, dwT
}

// convBackwardSamples computes dx rows and per-sample dW partials for
// samples [lo,hi) on the kernel the geometry allows. Samples touch
// disjoint dx and partial regions, so workers never race.
func convBackwardSamples(x, w, dout, dx, partials *Tensor, s ConvSpec, lo, hi, fg, cg, kh, kw, oh, ow int, ws *Workspace) {
	switch convPathOf(cg, fg, kh, kw, s) {
	case convDepthwise:
		h, wd := x.Dim(2), x.Dim(3)
		c := s.Groups
		for i := lo; i < hi; i++ {
			for g := 0; g < c; g++ {
				xp := x.Data[(i*c+g)*h*wd:][:h*wd]
				dop := dout.Data[(i*c+g)*oh*ow:][:oh*ow]
				dwBackward(dx.Data[(i*c+g)*h*wd:][:h*wd], partials.Data[(i*c+g)*9:][:9],
					xp, dop, w.Data[g*9:][:9], h, wd, oh, ow, s)
			}
		}
	case convPointwise:
		f, spatial := dout.Dim(1), oh*ow
		for i := lo; i < hi; i++ {
			for g := 0; g < s.Groups; g++ {
				xo := (i*s.Groups + g) * cg * spatial
				doutSlab := dout.Data[(i*f+g*fg)*spatial : (i*f+(g+1)*fg)*spatial]
				wSlab := w.Data[g*fg*cg : (g+1)*fg*cg]
				dwSlab := partials.Data[(i*f+g*fg)*cg : (i*f+(g+1)*fg)*cg]
				// dW_i = dout_i · x_iᵀ
				matmulBTRows(dwSlab, doutSlab, x.Data[xo:xo+cg*spatial], spatial, cg, 0, fg, false)
				// dx_i = wᵀ · dout_i, written in place: each element
				// gets exactly one col2im contribution, and adding a
				// sum folded from +0 (never −0) to +0 leaves it as is.
				matmulATRows(dx.Data[xo:xo+cg*spatial], wSlab, doutSlab, fg, cg, spatial, 0, cg, false)
			}
		}
	default:
		convBackwardIm2col(x, w, dout, dx, partials, s, lo, hi, fg, cg, kh, kw, oh, ow, ws)
	}
}

// convBackwardIm2col is the general backward: im2col for the weight
// gradient, and a dcol matrix scattered back by col2im for dx.
func convBackwardIm2col(x, w, dout, dx, partials *Tensor, s ConvSpec, lo, hi, fg, cg, kh, kw, oh, ow int, ws *Workspace) {
	f := dout.Dim(1)
	spatial := oh * ow
	ckk := cg * kh * kw
	col := ws.GetRaw(ckk, spatial)
	dcol := ws.GetRaw(ckk, spatial) // fully written by the AT matmul
	for i := lo; i < hi; i++ {
		pbase := i * f * ckk
		for g := 0; g < s.Groups; g++ {
			im2col(x, i, g*cg, cg, kh, kw, oh, ow, s, col)
			doutSlab := dout.Data[(i*f+g*fg)*spatial : (i*f+(g+1)*fg)*spatial]
			wSlab := w.Data[g*fg*ckk : (g+1)*fg*ckk]
			dwSlab := partials.Data[pbase+g*fg*ckk : pbase+(g+1)*fg*ckk]
			// dW_i = dout_i · colᵀ
			matmulBTRows(dwSlab, doutSlab, col.Data, spatial, ckk, 0, fg, false)
			// dcol = wᵀ · dout_i
			matmulATRows(dcol.Data, wSlab, doutSlab, fg, ckk, spatial, 0, ckk, false)
			col2im(dx, i, g*cg, cg, kh, kw, oh, ow, s, dcol)
		}
	}
	ws.Put(dcol)
	ws.Put(col)
}

// mergeSamplePartials folds n per-sample partials into dst for the
// element range [lo,hi): dst[e] = Σ_i src[i·len(dst)+e], summed in
// ascending i. Splitting by element keeps every element's fold order
// fixed, so the merge is bit-identical at any worker count.
func mergeSamplePartials(dst, src []float32, n, lo, hi int) {
	sz := len(dst)
	copy(dst[lo:hi], src[lo:hi])
	for i := 1; i < n; i++ {
		p := src[i*sz+lo : i*sz+hi]
		d := dst[lo:hi]
		for e, v := range p {
			d[e] += v
		}
	}
}
