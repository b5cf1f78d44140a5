package collective

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"segscale/internal/fp16"
	"segscale/internal/telemetry"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

type allreduce16Fn func(c *transport.Comm, group []int, buf []uint16) error

var algs16 = map[string]allreduce16Fn{
	"naive": AllreduceNaive[uint16],
	"ring":  AllreduceRing16,
	"rd":    AllreduceRecursiveDoubling16,
	"rab":   AllreduceRabenseifner16,
}

// runAllreduce16 executes fn on a world of p ranks where rank r
// contributes the binary16 encoding of ins[r], returning every rank's
// reduced buffer.
func runAllreduce16(t *testing.T, name string, fn allreduce16Fn, ins [][]float32) [][]uint16 {
	t.Helper()
	p := len(ins)
	n := len(ins[0])
	outs := make([][]uint16, p)
	errs := make([]error, p)
	runGroup(p, func(c *transport.Comm, group []int) {
		buf := make([]uint16, n)
		if err := fp16.Encode(ins[c.Rank()], buf); err != nil {
			errs[c.Rank()] = err
			return
		}
		errs[c.Rank()] = fn(c, group, buf)
		outs[c.Rank()] = buf
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("%s p=%d n=%d rank %d: %v", name, p, n, r, err)
		}
	}
	return outs
}

// Small integers are exact in binary16 (any sum below 2048 has no
// rounding), so across every algorithm and group size the compressed
// allreduce must reproduce the serial sum bit-for-bit — regardless of
// how each schedule orders its reduce hops.
func TestAllreduce16ExactSmallIntegers(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 8, 13}
	lengths := []int{1, 7, 64, 257}
	for name, fn := range algs16 {
		for _, p := range sizes {
			for _, n := range lengths {
				ins := make([][]float32, p)
				want := make([]float32, n)
				for r := range ins {
					ins[r] = make([]float32, n)
					for i := range ins[r] {
						ins[r][i] = float32((r+i)%9 - 4)
						want[i] += ins[r][i]
					}
				}
				outs := runAllreduce16(t, name, fn, ins)
				for r := 0; r < p; r++ {
					for i, h := range outs[r] {
						if got := fp16.ToFloat32(h); got != want[i] {
							t.Fatalf("%s p=%d n=%d rank %d elem %d: got %g, want %g",
								name, p, n, r, i, got, want[i])
						}
					}
				}
			}
		}
	}
}

// On random inputs every algorithm must stay within fp16 accumulation
// error of the float64 serial sum, and every rank must agree exactly
// with every other rank of the same run (the schedule is
// deterministic, so the reduced halves are identical across ranks).
func TestAllreduce16MatchesReferenceSum(t *testing.T) {
	const n = 129
	for name, fn := range algs16 {
		for _, p := range []int{2, 3, 7, 12} {
			rng := rand.New(rand.NewSource(int64(31*p + n)))
			ins := make([][]float32, p)
			want := make([]float64, n)
			for r := range ins {
				ins[r] = make([]float32, n)
				for i := range ins[r] {
					ins[r][i] = float32(rng.NormFloat64())
					want[i] += float64(fp16.ToFloat32(fp16.FromFloat32(ins[r][i])))
				}
			}
			outs := runAllreduce16(t, name, fn, ins)
			// Each reduce hop can lose up to half an ULP; with |sum|
			// bounded by ~4·sqrt(p) the tolerance p·2⁻¹⁰·(1+|want|)
			// comfortably covers every schedule depth.
			for i := 0; i < n; i++ {
				got := float64(fp16.ToFloat32(outs[0][i]))
				tol := float64(p) * (1.0 / 1024) * (1 + math.Abs(want[i]))
				if math.Abs(got-want[i]) > tol {
					t.Errorf("%s p=%d elem %d: got %g, want %g (tol %g)", name, p, i, got, want[i], tol)
				}
			}
			for r := 1; r < p; r++ {
				for i := range outs[r] {
					if outs[r][i] != outs[0][i] {
						t.Fatalf("%s p=%d: rank %d disagrees with rank 0 at elem %d: %#04x vs %#04x",
							name, p, r, i, outs[r][i], outs[0][i])
					}
				}
			}
		}
	}
}

// The hierarchical compositions must also reproduce exact small-int
// sums, on both the torus path (even groups + ring intra pick) and
// the leader path (uneven groups), plus the Summit-machine wrappers.
func TestAllreduce16Hierarchical(t *testing.T) {
	intra, inter := topology.SummitLinkSpecs()
	cases := []struct {
		name   string
		groups [][]int
	}{
		{"torus-2x3", [][]int{{0, 1, 2}, {3, 4, 5}}},
		{"torus-3x2", [][]int{{0, 1}, {2, 3}, {4, 5}}},
		{"leader-uneven", [][]int{{0, 1, 2}, {3, 4}, {5}}},
		{"single-node", [][]int{{0, 1, 2, 3}}},
	}
	const n = 37
	for _, tc := range cases {
		p := 0
		for _, g := range tc.groups {
			p += len(g)
		}
		ins := make([][]float32, p)
		want := make([]float32, n)
		for r := range ins {
			ins[r] = make([]float32, n)
			for i := range ins[r] {
				ins[r][i] = float32((2*r+i)%7 - 3)
				want[i] += ins[r][i]
			}
		}
		outs := make([][]uint16, p)
		errs := make([]error, p)
		transport.Run(p, func(c *transport.Comm) error {
			buf := make([]uint16, n)
			if err := fp16.Encode(ins[c.Rank()], buf); err != nil {
				return err
			}
			errs[c.Rank()] = AllreduceHierGroups16(c, tc.groups, intra, inter, buf)
			outs[c.Rank()] = buf
			return nil
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("%s rank %d: %v", tc.name, r, err)
			}
		}
		for r := 0; r < p; r++ {
			for i, h := range outs[r] {
				if got := fp16.ToFloat32(h); got != want[i] {
					t.Fatalf("%s rank %d elem %d: got %g, want %g", tc.name, r, i, got, want[i])
				}
			}
		}
	}
}

// The Machine-shaped entry points (leader hierarchy and two-level)
// agree with the serial sum on a multi-node Summit slice.
func TestAllreduce16HierMachineWrappers(t *testing.T) {
	mach := topology.Summit(2) // 2 nodes × 6 GPUs
	p := mach.Ranks()
	const n = 23
	for name, fn := range map[string]func(*transport.Comm, topology.Machine, []uint16) error{
		"hier-leader":   AllreduceHierLeader16,
		"hier-twolevel": AllreduceHierTwoLevel[uint16],
	} {
		ins := make([][]float32, p)
		want := make([]float32, n)
		for r := range ins {
			ins[r] = make([]float32, n)
			for i := range ins[r] {
				ins[r][i] = float32((r*i)%5 - 2)
				want[i] += ins[r][i]
			}
		}
		outs := make([][]uint16, p)
		transport.Run(p, func(c *transport.Comm) error {
			buf := make([]uint16, n)
			if err := fp16.Encode(ins[c.Rank()], buf); err != nil {
				return err
			}
			if err := fn(c, mach, buf); err != nil {
				return err
			}
			outs[c.Rank()] = buf
			return nil
		})
		for r := 0; r < p; r++ {
			if outs[r] == nil {
				t.Fatalf("%s rank %d produced no output", name, r)
			}
			for i, h := range outs[r] {
				if got := fp16.ToFloat32(h); got != want[i] {
					t.Fatalf("%s rank %d elem %d: got %g, want %g", name, r, i, got, want[i])
				}
			}
		}
	}
}

// Group-membership and shape validation errors mirror the float32
// collectives, and carry the wire's qualifier.
func TestAllreduce16Validation(t *testing.T) {
	intra, inter := topology.SummitLinkSpecs()
	transport.Run(1, func(c *transport.Comm) error {
		if err := AllreduceNaive(c, []int{1, 2}, []uint16{0}); err == nil || !strings.HasPrefix(err.Error(), "allreduce naive fp16:") {
			t.Errorf("naive16 on a group that excludes the caller: %v", err)
		}
		if err := AllreduceHierGroups16(c, nil, intra, inter, []uint16{0}); err == nil {
			t.Error("hier16 accepted an empty partition")
		}
		if err := AllreduceHierGroups16(c, [][]int{{0}, {}}, intra, inter, []uint16{0}); err == nil {
			t.Error("hier16 accepted an empty node group")
		}
		if err := wire16.reduce([]uint16{0}, []uint16{0, 0}); err == nil {
			t.Error("binary16 reduce accepted mismatched lengths")
		}
		return nil
	})
}

// The binary16 ring allocates no more per call than the float32 ring:
// the wire table is picked once per call and the reduce hop is a
// concrete loop, so the generic schedule adds nothing per element or
// per message. With a probe attached the two allocate exactly the
// same: span names are fixed per wire, not built per call.
func TestRing16AllocsMatchFloat32(t *testing.T) {
	const p, n = 4, 1 << 12
	w, err := transport.NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	group := []int{0, 1, 2, 3}
	bufs32 := make([][]float32, p)
	bufs16 := make([][]uint16, p)
	for r := range bufs32 {
		bufs32[r] = make([]float32, n)
		bufs16[r] = make([]uint16, n)
	}
	allocs32 := testing.AllocsPerRun(20, func() {
		if err := w.Run(func(c *transport.Comm) error { return AllreduceRing(c, group, bufs32[c.Rank()]) }); err != nil {
			t.Fatal(err)
		}
	})
	allocs16 := testing.AllocsPerRun(20, func() {
		if err := w.Run(func(c *transport.Comm) error { return AllreduceRing(c, group, bufs16[c.Rank()]) }); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per ring call: float32 %.0f, binary16 %.0f", allocs32, allocs16)
	if allocs16 > allocs32 {
		t.Fatalf("binary16 ring allocates %.0f per call, float32 %.0f", allocs16, allocs32)
	}

	// A fresh probe per call keeps the tracer's span log the same
	// length on every run, so the counts are exact (except under the
	// race detector).
	if raceEnabled {
		return
	}
	traced := func(ring func(c *transport.Comm) error) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := w.Run(func(c *transport.Comm) error {
				c.SetProbe(telemetry.NewProbe("rank", telemetry.NewStepClock()))
				return ring(c)
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	traced32 := traced(func(c *transport.Comm) error { return AllreduceRing(c, group, bufs32[c.Rank()]) })
	traced16 := traced(func(c *transport.Comm) error { return AllreduceRing(c, group, bufs16[c.Rank()]) })
	t.Logf("allocs per traced ring call: float32 %.0f, binary16 %.0f", traced32, traced16)
	if traced16 != traced32 {
		t.Fatalf("traced binary16 ring allocates %.0f per call, float32 %.0f", traced16, traced32)
	}
}
