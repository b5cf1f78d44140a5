package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndShape(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 || x.Dim(1) != 3 {
		t.Fatalf("shape bookkeeping wrong: %v len %d", x.Shape, x.Len())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New not zeroed")
		}
	}
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch accepted")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative dim accepted")
		}
	}()
	New(2, -1)
}

func TestAtSetOffsets(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7, 1, 2, 3)
	if x.At(1, 2, 3) != 7 {
		t.Fatal("At/Set round trip failed")
	}
	if x.Data[1*12+2*4+3] != 7 {
		t.Fatal("row-major offset wrong")
	}
}

func TestAtBoundsPanics(t *testing.T) {
	x := New(2, 2)
	for _, idx := range [][]int{{2, 0}, {0, -1}, {0}} {
		idx := idx
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("index %v accepted", idx)
				}
			}()
			x.At(idx...)
		}()
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Data[0] = 5
	if x.Data[0] != 5 {
		t.Fatal("reshape copied data")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad reshape accepted")
		}
	}()
	x.Reshape(5, 5)
}

func TestCloneIndependent(t *testing.T) {
	x := Full(3, 2, 2)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 3 {
		t.Fatal("clone aliases source")
	}
}

func TestElementwiseOps(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	y := FromSlice([]float32{10, 20, 30}, 3)
	x.Add(y)
	if x.Data[2] != 33 {
		t.Fatalf("Add: %v", x.Data)
	}
	x.AddScaled(0.5, y)
	if x.Data[0] != 16 {
		t.Fatalf("AddScaled: %v", x.Data)
	}
	x.Scale(2)
	if x.Data[0] != 32 {
		t.Fatalf("Scale: %v", x.Data)
	}
	x.MulElem(y)
	if x.Data[0] != 320 {
		t.Fatalf("MulElem: %v", x.Data)
	}
	x.Fill(1)
	if s := x.Sum(); s != 3 {
		t.Fatalf("Sum after fill: %v", s)
	}
	x.Zero()
	if x.MaxAbs() != 0 {
		t.Fatal("Zero failed")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with mismatched shape accepted")
		}
	}()
	New(2).Add(New(3))
}

func TestNorms(t *testing.T) {
	x := FromSlice([]float32{3, -4}, 2)
	if x.L2Norm() != 5 {
		t.Fatalf("L2 = %v", x.L2Norm())
	}
	if x.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", x.MaxAbs())
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[p*n+j]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

func tensorsClose(t *testing.T, got, want *Tensor, tol float64, what string) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v vs %v", what, got.Shape, want.Shape)
	}
	for i := range got.Data {
		if d := math.Abs(float64(got.Data[i] - want.Data[i])); d > tol {
			t.Fatalf("%s: element %d differs by %g (%g vs %g)", what, i, d, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {16, 16, 16}} {
		a := Randn(rng, 1, dims[0], dims[1])
		b := Randn(rng, 1, dims[1], dims[2])
		tensorsClose(t, MatMul(a, b), naiveMatMul(a, b), 1e-4, "matmul")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched matmul accepted")
		}
	}()
	MatMul(New(2, 3), New(4, 5))
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(rng, 1, 4, 6) // used as [k=4, m=6] for AT
	b := Randn(rng, 1, 4, 5)
	// AT: C = aᵀ·b, shape [6,5].
	c := New(6, 5)
	matmulAT(c, a, b, false)
	at := New(6, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			at.Data[j*4+i] = a.Data[i*6+j]
		}
	}
	tensorsClose(t, c, naiveMatMul(at, b), 1e-4, "matmulAT")

	// BT: C = x·yᵀ for x [3,4], y [5,4] → [3,5].
	x := Randn(rng, 1, 3, 4)
	y := Randn(rng, 1, 5, 4)
	c2 := New(3, 5)
	matmulBT(c2, x, y, false)
	yt := New(4, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			yt.Data[j*5+i] = y.Data[i*4+j]
		}
	}
	tensorsClose(t, c2, naiveMatMul(x, yt), 1e-4, "matmulBT")
}

func TestMatMulAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 1, 3, 3)
	b := Randn(rng, 1, 3, 3)
	c := Full(1, 3, 3)
	MatMulInto(c, a, b, true)
	want := naiveMatMul(a, b)
	for i := range want.Data {
		want.Data[i]++
	}
	tensorsClose(t, c, want, 1e-4, "accumulate")
}

// Property: matmul distributes over addition: A(B+C) = AB + AC.
func TestPropertyMatMulLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := r.Intn(5)+1, r.Intn(5)+1, r.Intn(5)+1
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		c := Randn(rng, 1, k, n)
		bc := b.Clone()
		bc.Add(c)
		left := MatMul(a, bc)
		right := MatMul(a, b)
		right.Add(MatMul(a, c))
		for i := range left.Data {
			if math.Abs(float64(left.Data[i]-right.Data[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelCoversRange(t *testing.T) {
	seen := make([]bool, 100)
	Parallel(100, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i] = true
		}
	})
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d not covered", i)
		}
	}
	Parallel(0, func(lo, hi int) { t.Error("fn called for n=0") })
}
