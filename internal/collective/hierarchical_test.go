package collective

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"segscale/internal/topology"
	"segscale/internal/transport"
)

// runHierWorld executes one hierarchical allreduce over an explicit
// node partition and returns every rank's output buffer.
func runHierWorld(t *testing.T, groups [][]int, intra, inter topology.LinkSpec, ins [][]float32) [][]float32 {
	t.Helper()
	p := len(ins)
	w, err := transport.NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]float32, p)
	if err := w.Run(func(c *transport.Comm) error {
		buf := make([]float32, len(ins[c.Rank()]))
		copy(buf, ins[c.Rank()])
		if err := AllreduceHierGroups(c, groups, intra, inter, buf); err != nil {
			return err
		}
		outs[c.Rank()] = buf
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return outs
}

// identityGroups partitions ranks 0..p-1 into nodes of the given
// sizes (which must sum to p).
func identityGroups(sizes ...int) [][]int {
	groups := make([][]int, len(sizes))
	r := 0
	for n, sz := range sizes {
		groups[n] = make([]int, sz)
		for i := range groups[n] {
			groups[n][i] = r
			r++
		}
	}
	return groups
}

// TestPropertyHierAwkwardShapes: the hierarchical allreduce matches
// the sequential float64 reference on the world shapes that stress
// its composition logic — one rank per node (the intra level is a
// no-op), an uneven last node (torus must fall back to leader), prime
// rank counts, and a single node (the inter level is a no-op) — under
// both forced compositions. The zero-latency spec pair forces the
// torus path wherever the groups are even; the high-latency pair
// forces the leader path everywhere.
func TestPropertyHierAwkwardShapes(t *testing.T) {
	ringSpec := topology.LinkSpec{AlphaSec: 0, BWBytesPerSec: 1e12}
	treeSpec := topology.LinkSpec{AlphaSec: 1, BWBytesPerSec: 1e12}
	shapes := []struct {
		name   string
		groups [][]int
	}{
		{"1-rank-per-node-x5", identityGroups(1, 1, 1, 1, 1)},
		{"uneven-last-node-3-3-1", identityGroups(3, 3, 1)},
		{"uneven-last-node-4-4-2", identityGroups(4, 4, 2)},
		{"prime-7-split-3-3-1", identityGroups(3, 3, 1)},
		{"prime-13-split-6-6-1", identityGroups(6, 6, 1)},
		{"single-node-6", identityGroups(6)},
		{"single-rank", identityGroups(1)},
		{"even-2x3", identityGroups(3, 3)},
		{"summit-node-pair-6-6", identityGroups(6, 6)},
	}
	specs := []struct {
		name         string
		intra, inter topology.LinkSpec
	}{
		{"torus-forced", ringSpec, ringSpec},
		{"leader-forced", treeSpec, treeSpec},
		{"summit", topology.LinkSpec{}, topology.LinkSpec{}}, // filled below
	}
	specs[2].intra, specs[2].inter = topology.SummitLinkSpecs()

	for _, sh := range shapes {
		p := 0
		for _, g := range sh.groups {
			p += len(g)
		}
		for _, sp := range specs {
			sp := sp
			sh := sh
			t.Run(sh.name+"/"+sp.name, func(t *testing.T) {
				prop := func(seed int64, nRaw uint16) bool {
					n := int(nRaw % 300)
					ins, _ := makeInputs(p, n, seed)
					outs := runHierWorld(t, sh.groups, sp.intra, sp.inter, ins)
					want, _ := refSum(ins)
					for r := 0; r < p; r++ {
						for i := range want {
							if math.Abs(float64(outs[r][i])-want[i]) > 1e-4*float64(p) {
								t.Logf("n=%d seed=%d rank %d elem %d: %g vs %g",
									n, seed, r, i, outs[r][i], want[i])
								return false
							}
						}
					}
					return true
				}
				cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(int64(p)))}
				if err := quick.Check(prop, cfg); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestHierGroupsValidation: malformed partitions are reported as
// errors on the offending rank, never a hang or panic.
func TestHierGroupsValidation(t *testing.T) {
	intra, inter := topology.SummitLinkSpecs()
	w, err := transport.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	runErr := w.Run(func(c *transport.Comm) error {
		buf := []float32{1}
		// Rank 1 is missing from the partition: both ranks must error
		// (rank 0 would otherwise hang waiting for its ring partner).
		err := AllreduceHierGroups(c, [][]int{{0}}, intra, inter, buf)
		if c.Rank() == 1 {
			if err == nil {
				t.Error("rank 1 outside partition: want error")
			}
			return nil
		}
		return nil
	})
	if runErr != nil {
		t.Fatal(runErr)
	}

	w2, err := transport.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Run(func(c *transport.Comm) error {
		if err := AllreduceHierGroups(c, nil, intra, inter, []float32{1}); err == nil {
			t.Error("empty partition: want error")
		}
		if err := AllreduceHierGroups(c, [][]int{{0}, {}}, intra, inter, []float32{1}); err == nil {
			t.Error("empty node group: want error")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestHierTwoLevelWorldMismatch: a world smaller than the machine is
// an error, mirroring AllreduceHierLeader's contract.
func TestHierTwoLevelWorldMismatch(t *testing.T) {
	w, err := transport.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(c *transport.Comm) error {
		if err := AllreduceHierTwoLevel(c, topology.Summit(1), []float32{1}); err == nil {
			t.Error("world 2 vs machine 6: want error")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
