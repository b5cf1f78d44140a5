package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// transpose returns a new [n,m] tensor with t's axes swapped.
func transpose(t *Tensor) *Tensor {
	m, n := t.Dim(0), t.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = t.Data[i*n+j]
		}
	}
	return out
}

// matmulAT computes C (+)= Aᵀ·B for A [k,m] and B [k,n] by running
// the input-gradient row worker over every row.
func matmulAT(c, a, b *Tensor, accumulate bool) {
	k, m := a.Dim(0), a.Dim(1)
	matmulATRows(c.Data, a.Data, b.Data, k, m, b.Dim(1), 0, m, accumulate)
}

// matmulBT computes C (+)= A·Bᵀ for A [m,k] and B [n,k] by running
// the weight-gradient row worker over every row.
func matmulBT(c, a, b *Tensor, accumulate bool) {
	matmulBTRows(c.Data, a.Data, b.Data, a.Dim(1), b.Dim(0), 0, a.Dim(0), accumulate)
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

// requireBitIdentical fails unless x and y carry identical bit
// patterns element by element (NaN == NaN, +0 != -0).
func requireBitIdentical(t *testing.T, got, want *Tensor, label string) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v vs %v", label, got.Shape, want.Shape)
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d differs: %x (%g) vs %x (%g)",
				label, i,
				math.Float32bits(got.Data[i]), got.Data[i],
				math.Float32bits(want.Data[i]), want.Data[i])
		}
	}
}

// edgeDims exercises every tiling regime: below one micro-tile, exact
// tiles, one-off remainders, and panel-boundary straddles.
var edgeDims = []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 33}

// TestMatMulBitIdenticalToRef pins the tiled kernel's numerical
// contract: for accumulate=false every element is the same ascending-p
// register dot the reference kernel folds in memory, so the two paths
// must agree bit for bit — including partial edge tiles.
func TestMatMulBitIdenticalToRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range edgeDims {
		for _, k := range edgeDims {
			for _, n := range edgeDims {
				a := randTensor(rng, m, k)
				b := randTensor(rng, k, n)
				got, want := New(m, n), New(m, n)
				MatMulInto(got, a, b, false)
				MatMulRefInto(want, a, b, false)
				requireBitIdentical(t, got, want, "matmul")

				at := transpose(a)
				gotAT := New(m, n)
				matmulAT(gotAT, at, b, false)
				requireBitIdentical(t, gotAT, want, "matmulAT")

				bt := transpose(b)
				gotBT := New(m, n)
				matmulBT(gotBT, a, bt, false)
				requireBitIdentical(t, gotBT, want, "matmulBT")
			}
		}
	}
}

// TestMatMulAccumulateEdgeShapes checks C += A·B across the same edge
// shapes with a tolerance: accumulate=true folds the existing C in a
// different association than the reference, so only closeness is
// promised.
func TestMatMulAccumulateEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 5}, {5, 4, 3}, {9, 17, 8}, {16, 9, 33}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		base := randTensor(rng, m, n)

		got := base.Clone()
		MatMulInto(got, a, b, true)
		want := base.Clone()
		MatMulRefInto(want, a, b, true)
		tensorsClose(t, got, want, 1e-4, "matmul accumulate")

		gotAT := base.Clone()
		matmulAT(gotAT, transpose(a), b, true)
		tensorsClose(t, gotAT, want, 1e-4, "matmulAT accumulate")

		gotBT := base.Clone()
		matmulBT(gotBT, a, transpose(b), true)
		tensorsClose(t, gotBT, want, 1e-4, "matmulBT accumulate")
	}
}

// TestMatMulNaNInfPropagation guards the zero-skip bugfix: a zero in A
// multiplying a NaN or Inf in B must produce NaN in C (0×NaN = NaN,
// 0×Inf = NaN). The old kernel skipped zero A values as an
// optimisation and silently reported finite results for diverged
// operands, hiding exactly the signal loss-scaling and NaN-detection
// exist to catch.
func TestMatMulNaNInfPropagation(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))

	// Row 0 of A is all zeros; columns of B carry NaN/Inf poison.
	a := FromSlice([]float32{
		0, 0, 0,
		1, 2, 3,
	}, 2, 3)
	b := FromSlice([]float32{
		nan, inf, 1, 0,
		0, 1, 2, 0,
		0, 0, inf, 0,
	}, 3, 4)

	check := func(name string, f func(c *Tensor)) {
		c := Full(-1, 2, 4)
		f(c)
		want := naiveMatMul(a, b)
		for i := range c.Data {
			gotNaN := math.IsNaN(float64(c.Data[i]))
			wantNaN := math.IsNaN(float64(want.Data[i]))
			if gotNaN != wantNaN {
				t.Fatalf("%s: element %d NaN=%v, naive NaN=%v (got %g, naive %g)",
					name, i, gotNaN, wantNaN, c.Data[i], want.Data[i])
			}
			if !wantNaN && math.Float32bits(c.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: element %d = %g, naive %g", name, i, c.Data[i], want.Data[i])
			}
		}
	}

	check("matmul", func(c *Tensor) { MatMulInto(c, a, b, false) })
	check("matmulAT", func(c *Tensor) { matmulAT(c, transpose(a), b, false) })
	check("matmulBT", func(c *Tensor) { matmulBT(c, a, transpose(b), false) })

	// Sanity: 0×NaN and 0×Inf really did reach C.
	c := New(2, 4)
	MatMulInto(c, a, b, false)
	if !math.IsNaN(float64(c.Data[0])) || !math.IsNaN(float64(c.Data[1])) {
		t.Fatalf("zero row × NaN/Inf columns stayed finite: %v", c.Data[:4])
	}
}

// TestMatMulGOMAXPROCSIndependent pins the stronger determinism the
// register-dot kernel provides: worker count changes which goroutine
// computes an element, never the element's fold order, so results are
// bit-identical across GOMAXPROCS settings.
func TestMatMulGOMAXPROCSIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randTensor(rng, 37, 29)
	b := randTensor(rng, 29, 23)

	prev := runtime.GOMAXPROCS(1)
	serial := New(37, 23)
	MatMulInto(serial, a, b, false)
	runtime.GOMAXPROCS(4)
	wide := New(37, 23)
	MatMulInto(wide, a, b, false)
	runtime.GOMAXPROCS(prev)

	requireBitIdentical(t, wide, serial, "gomaxprocs")
}

// TestMatMulIntoZeroAllocs pins the steady-state allocation budget:
// once the internal pack-panel pool is warm, MatMulInto must not touch
// the heap. Measured at GOMAXPROCS=1 so goroutine spawning (which
// Parallel skips when serial) doesn't count against the kernel.
func TestMatMulIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randTensor(rng, 24, 31)
	b := randTensor(rng, 31, 18)
	c := New(24, 18)

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	MatMulInto(c, a, b, false) // warm the pack-panel pool

	if n := testing.AllocsPerRun(20, func() {
		MatMulInto(c, a, b, false)
	}); n != 0 {
		t.Fatalf("MatMulInto allocates %.1f times per call in steady state, want 0", n)
	}
}
