package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specials are the finite values planted among random operands: both
// zeros, subnormals, and tiny normals whose products underflow into
// the subnormal range.
var specials = []float32{
	float32(math.Copysign(0, -1)),
	0,
	math.SmallestNonzeroFloat32,
	-3 * math.SmallestNonzeroFloat32,
	1e-39,
	1e-20,
	-2e-20,
}

// nonFinite are planted once per operand, so most outputs stay finite
// and still get compared bit for bit.
var nonFinite = []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}

// plantedData returns n random values: roughly one in eight is drawn
// from specials, and one is NaN or ±Inf.
func plantedData(rng *rand.Rand, n int) []float32 {
	d := make([]float32, n)
	for i := range d {
		if rng.Intn(8) == 0 {
			d[i] = specials[rng.Intn(len(specials))]
		} else {
			d[i] = float32(rng.NormFloat64())
		}
	}
	if n > 0 {
		d[rng.Intn(n)] = nonFinite[rng.Intn(len(nonFinite))]
	}
	return d
}

// requireSameOrNaN fails unless got and want are NaN at the same
// positions and bit-identical everywhere else. The NaN payload is not
// part of the kernels' contract.
func requireSameOrNaN(t *testing.T, got, want []float32, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		gn, wn := math.IsNaN(float64(got[i])), math.IsNaN(float64(want[i]))
		if gn != wn || (!gn && math.Float32bits(got[i]) != math.Float32bits(want[i])) {
			t.Fatalf("%s: element %d = %g (%#x), want %g (%#x)",
				label, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestTileMatchesGoTile runs the full tile (assembly on amd64) against
// the portable Go tile over random k, both A layouts, accumulate on
// and off, with specials planted in A, B and C.
func TestTileMatchesGoTile(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 400; iter++ {
		k := iter % 37
		if iter >= 200 {
			k = rng.Intn(300)
		}
		acc := iter%2 == 1
		// Row-major A (the forward and weight-gradient layout) or a
		// transposed view (the input-gradient layout).
		ars, aps := k, 1
		if iter%4 >= 2 {
			ars, aps = 1, mrTile
		}
		a := plantedData(rng, mrTile*max(k, 1))
		b := plantedData(rng, nrTile*k)
		cs := nrTile + rng.Intn(3)
		base := plantedData(rng, (mrTile-1)*cs+nrTile)

		got := append([]float32(nil), base...)
		want := append([]float32(nil), base...)
		tile4x4(got, cs, a, ars, aps, b, k, acc)
		tileGo(want, cs, a, ars, aps, b, k, acc)
		requireSameOrNaN(t, got, want, fmt.Sprintf("iter %d k=%d acc=%v", iter, k, acc))
	}
}

// TestGEMMRowsMatchRef runs the three row workers over random shapes,
// k = 0 and partial panels included, against MatMulRefInto with
// specials planted in every operand. With accumulate the reference is
// C + (A·B), the association the tiles use.
func TestGEMMRowsMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 300; iter++ {
		m, k, n := 1+rng.Intn(13), iter%9, 1+rng.Intn(13)
		if iter >= 150 {
			k = rng.Intn(70)
		}
		a := FromSlice(plantedData(rng, m*k), m, k)
		b := FromSlice(plantedData(rng, k*n), k, n)
		base := FromSlice(plantedData(rng, m*n), m, n)
		ref := New(m, n)
		MatMulRefInto(ref, a, b, false)

		for _, acc := range []bool{false, true} {
			want := ref.Clone()
			if acc {
				for i, v := range base.Data {
					want.Data[i] = v + ref.Data[i]
				}
			}
			label := fmt.Sprintf("m=%d k=%d n=%d acc=%v", m, k, n, acc)

			got := base.Clone()
			matmulRows(got.Data, a.Data, b.Data, k, n, 0, m, acc)
			requireSameOrNaN(t, got.Data, want.Data, "matmul "+label)

			got = base.Clone()
			matmulAT(got, transpose(a), b, acc)
			requireSameOrNaN(t, got.Data, want.Data, "matmulAT "+label)

			got = base.Clone()
			matmulBT(got, a, transpose(b), acc)
			requireSameOrNaN(t, got.Data, want.Data, "matmulBT "+label)
		}
	}
}

// TestConvDirectPathsMatchIm2col checks the direct depthwise and 1×1
// kernels against the im2col path, called directly, bit for bit on
// out, dx and dW. Specials are planted in x, w and dout so padded
// taps' w·0 and dout·0 terms must be present for NaN to land where
// im2col puts it.
func TestConvDirectPathsMatchIm2col(t *testing.T) {
	type tc struct {
		n, c, h, w, f, k int
		spec             ConvSpec
		path             convPath
	}
	var cases []tc
	for _, stride := range []int{1, 2} {
		for d := 1; d <= 6; d++ {
			cases = append(cases,
				tc{2, 3, 9, 7, 3, 3, ConvSpec{Stride: stride, Pad: SamePad(3, d), Dilation: d, Groups: 3}, convDepthwise},
				tc{2, 2, 6, 6, 2, 3, ConvSpec{Stride: stride, Pad: d + 1, Dilation: d, Groups: 2}, convDepthwise})
		}
	}
	cases = append(cases,
		// ASPP geometry: rate 6 on 6×6 and 2×2 maps, padding as wide
		// as or wider than the map.
		tc{2, 4, 6, 6, 4, 3, ConvSpec{Pad: 6, Dilation: 6, Groups: 4}, convDepthwise},
		tc{2, 3, 2, 2, 3, 3, ConvSpec{Pad: 6, Dilation: 6, Groups: 3}, convDepthwise},
		tc{2, 3, 2, 3, 3, 3, ConvSpec{Stride: 2, Pad: 6, Dilation: 6, Groups: 3}, convDepthwise},
		tc{3, 5, 6, 4, 7, 1, ConvSpec{}, convPointwise},
		tc{2, 6, 5, 5, 4, 1, ConvSpec{Groups: 2}, convPointwise},
		tc{2, 8, 1, 1, 9, 1, ConvSpec{}, convPointwise},
	)
	for i, c := range cases {
		name := fmt.Sprintf("%d_k%d_s%d_p%d_d%d_g%d", i, c.k, c.spec.Stride, c.spec.Pad, c.spec.Dilation, c.spec.Groups)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + i)))
			s := c.spec.Canon()
			cg, fg := c.c/s.Groups, c.f/s.Groups
			if got := convPathOf(cg, fg, c.k, c.k, s); got != c.path {
				t.Fatalf("path %d, want %d", got, c.path)
			}
			oh := ConvOutSize(c.h, c.k, s.Stride, s.Pad, s.Dilation)
			ow := ConvOutSize(c.w, c.k, s.Stride, s.Pad, s.Dilation)
			x := FromSlice(plantedData(rng, c.n*c.c*c.h*c.w), c.n, c.c, c.h, c.w)
			w := FromSlice(plantedData(rng, c.f*cg*c.k*c.k), c.f, cg, c.k, c.k)
			dout := FromSlice(plantedData(rng, c.n*c.f*oh*ow), c.n, c.f, oh, ow)

			check := func(label string) {
				t.Helper()
				out := Conv2D(x, w, s)
				want := New(c.n, c.f, oh, ow)
				conv2DIm2col(x, w, want, s, 0, c.n, fg, cg, c.k, c.k, oh, ow, nil)
				requireSameOrNaN(t, out.Data, want.Data, label+" out")

				dx, dw := Conv2DBackward(x, w, dout, s)
				wantDx := New(c.n, c.c, c.h, c.w)
				partials := New(c.n, c.f, cg, c.k, c.k)
				convBackwardIm2col(x, w, dout, wantDx, partials, s, 0, c.n, fg, cg, c.k, c.k, oh, ow, nil)
				wantDw := New(c.f, cg, c.k, c.k)
				mergeSamplePartials(wantDw.Data, partials.Data, c.n, 0, wantDw.Len())
				requireSameOrNaN(t, dx.Data, wantDx.Data, label+" dx")
				requireSameOrNaN(t, dw.Data, wantDw.Data, label+" dw")
			}
			check("planted")
			// All-(−0) weights make every product −0: the sums must
			// still start from +0 and so come out +0.
			negZero := float32(math.Copysign(0, -1))
			for j := range w.Data {
				w.Data[j] = negZero
			}
			check("-0 weights")
		})
	}
}
