package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// naiveConv2D is a direct 7-loop reference implementation.
func naiveConv2D(x, w *Tensor, spec ConvSpec) *Tensor {
	s := spec.Canon()
	n, h, wd := x.Dim(0), x.Dim(2), x.Dim(3)
	f, cg, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	oh := ConvOutSize(h, kh, s.Stride, s.Pad, s.Dilation)
	ow := ConvOutSize(wd, kw, s.Stride, s.Pad, s.Dilation)
	fg := f / s.Groups
	out := New(n, f, oh, ow)
	for i := 0; i < n; i++ {
		for ff := 0; ff < f; ff++ {
			g := ff / fg
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var sum float32
					for cc := 0; cc < cg; cc++ {
						ci := g*cg + cc
						for ky := 0; ky < kh; ky++ {
							iy := oy*s.Stride - s.Pad + ky*s.Dilation
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ox*s.Stride - s.Pad + kx*s.Dilation
								if ix < 0 || ix >= wd {
									continue
								}
								sum += x.At(i, ci, iy, ix) * w.At(ff, cc, ky, kx)
							}
						}
					}
					out.Set(sum, i, ff, oy, ox)
				}
			}
		}
	}
	return out
}

func TestConv2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cases := []struct {
		n, c, h, w, f, k int
		spec             ConvSpec
	}{
		{1, 1, 5, 5, 1, 3, ConvSpec{Stride: 1, Pad: 1}},
		{2, 3, 7, 6, 4, 3, ConvSpec{Stride: 1, Pad: 1}},
		{2, 3, 8, 8, 4, 3, ConvSpec{Stride: 2, Pad: 1}},
		{1, 2, 9, 9, 3, 3, ConvSpec{Stride: 1, Pad: 2, Dilation: 2}},   // atrous
		{1, 2, 11, 11, 2, 3, ConvSpec{Stride: 1, Pad: 4, Dilation: 4}}, // atrous rate 4
		{1, 4, 6, 6, 4, 3, ConvSpec{Stride: 1, Pad: 1, Groups: 4}},     // depthwise
		{2, 6, 5, 5, 4, 3, ConvSpec{Stride: 1, Pad: 1, Groups: 2}},     // grouped
		{1, 3, 5, 5, 2, 1, ConvSpec{}},                                 // 1×1 pointwise
		{1, 2, 7, 7, 2, 5, ConvSpec{Stride: 2, Pad: 2}},
		{2, 3, 2, 2, 2, 3, ConvSpec{Stride: 1, Pad: 6, Dilation: 6}}, // ASPP rate 6 on a 2×2 map
	}
	for i, c := range cases {
		x := Randn(rng, 1, c.n, c.c, c.h, c.w)
		g := c.spec.Canon().Groups
		w := Randn(rng, 0.5, c.f, c.c/g, c.k, c.k)
		got := Conv2D(x, w, c.spec)
		want := naiveConv2D(x, w, c.spec)
		tensorsClose(t, got, want, 1e-3, "conv case "+string(rune('A'+i)))
	}
}

func TestConvOutSize(t *testing.T) {
	if got := ConvOutSize(513, 3, 1, 1, 1); got != 513 {
		t.Errorf("same conv: %d", got)
	}
	if got := ConvOutSize(33, 3, 1, 6, 6); got != 33 {
		t.Errorf("atrous rate-6 same conv: %d", got)
	}
	if got := ConvOutSize(8, 3, 2, 1, 1); got != 4 {
		t.Errorf("stride 2: %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("impossible conv accepted")
		}
	}()
	ConvOutSize(2, 5, 1, 0, 1)
}

func TestSamePad(t *testing.T) {
	if SamePad(3, 1) != 1 || SamePad(3, 6) != 6 || SamePad(5, 1) != 2 {
		t.Fatal("SamePad wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("even kernel accepted")
		}
	}()
	SamePad(4, 1)
}

func TestConvValidation(t *testing.T) {
	x := New(1, 3, 5, 5)
	for _, f := range []func(){
		func() { Conv2D(x, New(2, 2, 3, 3), ConvSpec{Pad: 1}) },            // wrong cg
		func() { Conv2D(x, New(2, 3, 3, 3), ConvSpec{Pad: 1, Groups: 2}) }, // groups ∤ C
		func() { Conv2D(x.Reshape(3, 5, 5, 1), New(2, 3, 3, 3), ConvSpec{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid conv accepted")
				}
			}()
			f()
		}()
	}
}

// numericalGrad approximates d(sum(conv output ⊙ mask))/dθ.
func numericalGrad(eval func() float64, param []float32, i int) float64 {
	const eps = 1e-2
	orig := param[i]
	param[i] = orig + eps
	up := eval()
	param[i] = orig - eps
	down := eval()
	param[i] = orig
	return (up - down) / (2 * eps)
}

func TestConv2DBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	specs := []ConvSpec{
		{Stride: 1, Pad: 1},
		{Stride: 2, Pad: 1},
		{Stride: 1, Pad: 2, Dilation: 2},
		{Stride: 1, Pad: 1, Groups: 2},
	}
	for si, spec := range specs {
		x := Randn(rng, 1, 1, 2, 5, 5)
		g := spec.Canon().Groups
		w := Randn(rng, 0.5, 2, 2/g, 3, 3)
		// Loss = Σ out ⊙ mask for a random fixed mask.
		out := Conv2D(x, w, spec)
		mask := Randn(rng, 1, out.Shape...)
		eval := func() float64 {
			o := Conv2D(x, w, spec)
			s := 0.0
			for i := range o.Data {
				s += float64(o.Data[i] * mask.Data[i])
			}
			return s
		}
		dx, dw := Conv2DBackward(x, w, mask, spec)
		// Spot-check a handful of weight and input coordinates.
		for _, i := range []int{0, 3, 7, len(w.Data) - 1} {
			want := numericalGrad(eval, w.Data, i)
			if d := math.Abs(float64(dw.Data[i]) - want); d > 2e-2 {
				t.Errorf("spec %d: dw[%d] = %g, numerical %g", si, i, dw.Data[i], want)
			}
		}
		for _, i := range []int{0, 11, 24, len(x.Data) - 1} {
			want := numericalGrad(eval, x.Data, i)
			if d := math.Abs(float64(dx.Data[i]) - want); d > 2e-2 {
				t.Errorf("spec %d: dx[%d] = %g, numerical %g", si, i, dx.Data[i], want)
			}
		}
	}
}

func TestConv2DBackwardShapeValidation(t *testing.T) {
	x := New(1, 2, 5, 5)
	w := New(2, 2, 3, 3)
	defer func() {
		if recover() == nil {
			t.Error("wrong dout shape accepted")
		}
	}()
	Conv2DBackward(x, w, New(1, 2, 9, 9), ConvSpec{Pad: 1})
}

func TestGlobalAvgPool(t *testing.T) {
	x := New(1, 2, 2, 2)
	copy(x.Data, []float32{1, 2, 3, 4, 10, 20, 30, 40})
	out := GlobalAvgPool(x)
	if out.At(0, 0, 0, 0) != 2.5 || out.At(0, 1, 0, 0) != 25 {
		t.Fatalf("pool = %v", out.Data)
	}
	dx := GlobalAvgPoolBackward(out, 2, 2)
	if dx.At(0, 0, 0, 0) != 2.5/4 {
		t.Fatalf("pool backward = %v", dx.Data)
	}
}

func TestMaxPool2(t *testing.T) {
	x := New(1, 1, 2, 4)
	copy(x.Data, []float32{1, 5, 2, 0, 3, 4, 1, 9})
	out, arg := MaxPool2(x)
	if out.At(0, 0, 0, 0) != 5 || out.At(0, 0, 0, 1) != 9 {
		t.Fatalf("maxpool = %v", out.Data)
	}
	dout := Full(1, 1, 1, 1, 2)
	dx := MaxPool2Backward(dout, arg, 2, 4)
	if dx.Data[1] != 1 || dx.Data[7] != 1 || dx.Sum() != 2 {
		t.Fatalf("maxpool backward = %v", dx.Data)
	}
}

func TestMaxPool2OddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd input accepted")
		}
	}()
	MaxPool2(New(1, 1, 3, 4))
}

func TestBilinearResizeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	x := Randn(rng, 1, 2, 2, 4, 4)
	y := BilinearResize(x, 4, 4)
	tensorsClose(t, y, x, 1e-6, "identity resize")
}

func TestBilinearResizeUpsampleCorners(t *testing.T) {
	// align_corners=true must preserve corner values exactly.
	x := New(1, 1, 2, 2)
	copy(x.Data, []float32{1, 2, 3, 4})
	y := BilinearResize(x, 5, 5)
	if y.At(0, 0, 0, 0) != 1 || y.At(0, 0, 0, 4) != 2 || y.At(0, 0, 4, 0) != 3 || y.At(0, 0, 4, 4) != 4 {
		t.Fatalf("corners: %v", y.Data)
	}
	// Centre is the average of all four.
	if c := y.At(0, 0, 2, 2); math.Abs(float64(c-2.5)) > 1e-6 {
		t.Fatalf("centre = %v", c)
	}
}

// Adjoint test: <Resize(x), y> == <x, ResizeBackward(y)> — verifies
// the backward pass is the exact transpose of the forward.
func TestBilinearResizeAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dims := range [][4]int{{3, 3, 7, 7}, {5, 5, 3, 3}, {4, 6, 9, 5}} {
		x := Randn(rng, 1, 1, 1, dims[0], dims[1])
		y := Randn(rng, 1, 1, 1, dims[2], dims[3])
		ax := BilinearResize(x, dims[2], dims[3])
		aty := BilinearResizeBackward(y, dims[0], dims[1])
		var lhs, rhs float64
		for i := range ax.Data {
			lhs += float64(ax.Data[i] * y.Data[i])
		}
		for i := range x.Data {
			rhs += float64(x.Data[i] * aty.Data[i])
		}
		if math.Abs(lhs-rhs) > 1e-3 {
			t.Errorf("%v: <Ax,y>=%g != <x,Aᵀy>=%g", dims, lhs, rhs)
		}
	}
}

func TestSoftmaxCrossEntropyUniform(t *testing.T) {
	// All-zero logits over K classes → loss = ln K.
	k := 4
	logits := New(1, k, 2, 2)
	labels := []int32{0, 1, 2, 3}
	loss, grad := SoftmaxCrossEntropy(logits, labels, 255)
	if math.Abs(loss-math.Log(float64(k))) > 1e-6 {
		t.Fatalf("uniform loss = %g, want ln %d", loss, k)
	}
	// Gradient sums to zero per pixel.
	for p := 0; p < 4; p++ {
		var s float64
		for c := 0; c < k; c++ {
			s += float64(grad.At(0, c, p/2, p%2))
		}
		if math.Abs(s) > 1e-6 {
			t.Fatalf("gradient at pixel %d sums to %g", p, s)
		}
	}
}

func TestSoftmaxCrossEntropyIgnore(t *testing.T) {
	logits := New(1, 3, 1, 2)
	logits.Set(5, 0, 1, 0, 0) // confident class-1 at pixel 0
	labels := []int32{1, 255}
	loss, grad := SoftmaxCrossEntropy(logits, labels, 255)
	if loss > 0.1 {
		t.Fatalf("confident correct prediction loss = %g", loss)
	}
	for c := 0; c < 3; c++ {
		if grad.At(0, c, 0, 1) != 0 {
			t.Fatal("ignored pixel received gradient")
		}
	}
	// All-ignored batch: zero loss, zero grad.
	loss2, grad2 := SoftmaxCrossEntropy(New(1, 3, 1, 2), []int32{255, 255}, 255)
	if loss2 != 0 || grad2.MaxAbs() != 0 {
		t.Fatal("all-ignored batch produced loss/gradient")
	}
}

func TestSoftmaxCrossEntropyNumericalGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	logits := Randn(rng, 1, 1, 3, 2, 2)
	labels := []int32{0, 2, 255, 1}
	_, grad := SoftmaxCrossEntropy(logits, labels, 255)
	eval := func() float64 {
		l, _ := SoftmaxCrossEntropy(logits, labels, 255)
		return l
	}
	for _, i := range []int{0, 5, 11} {
		want := numericalGrad(eval, logits.Data, i)
		if d := math.Abs(float64(grad.Data[i]) - want); d > 2e-3 {
			t.Errorf("dlogits[%d] = %g, numerical %g", i, grad.Data[i], want)
		}
	}
}

func TestSoftmaxCrossEntropyBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range label accepted")
		}
	}()
	SoftmaxCrossEntropy(New(1, 3, 1, 1), []int32{7}, 255)
}

func TestArgmaxClass(t *testing.T) {
	logits := New(1, 3, 1, 2)
	logits.Set(9, 0, 2, 0, 0)
	logits.Set(9, 0, 1, 0, 1)
	pred := ArgmaxClass(logits)
	if pred[0] != 2 || pred[1] != 1 {
		t.Fatalf("pred = %v", pred)
	}
}
