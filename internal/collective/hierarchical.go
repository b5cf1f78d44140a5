package collective

import (
	"fmt"

	"segscale/internal/timeline"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

// allreduceLevel runs a per-level algorithm choice as its flat
// implementation over an explicit rank group. The inter-node phase
// reuses the flat algorithms (and their tag bases) over disjoint
// cross-node groups, so only the intra-node ring phases of the torus
// composition need tag bases of their own (hierRS, hierAG).
func allreduceLevel[E Wire](alg topology.LevelAlg, c *transport.Comm, group []int, buf []E) error {
	switch alg {
	case topology.LevelRecursiveDoubling:
		return AllreduceRecursiveDoubling(c, group, buf)
	case topology.LevelRabenseifner:
		return AllreduceRabenseifner(c, group, buf)
	default:
		return AllreduceRing(c, group, buf)
	}
}

// AllreduceHierTwoLevel is the topology-aware two-level hierarchical
// allreduce: it consults the machine's link parameters to pick the
// per-level algorithm (ring intra-node over NVLink at fused-buffer
// sizes, Rabenseifner or recursive doubling inter-node over IB), then
// composes the levels. The world must equal mach.Ranks() ranks laid
// out in machine order; elastic worlds with holes go through
// AllreduceHierGroups with explicit node groups instead.
func AllreduceHierTwoLevel[E Wire](c *transport.Comm, mach topology.Machine, buf []E) error {
	if c.Size() != mach.Ranks() {
		return fmt.Errorf("collective: world %d != machine ranks %d", c.Size(), mach.Ranks())
	}
	groups := make([][]int, mach.Nodes)
	for n := range groups {
		groups[n] = mach.NodeRanks(n)
	}
	intra, inter := topology.SummitLinkSpecs()
	return AllreduceHierGroups(c, groups, intra, inter, buf)
}

// AllreduceHierGroups runs a two-level allreduce over an explicit
// node partition: groups[i] lists the global ranks on node i, every
// participating rank appears in exactly one group, and all ranks must
// pass identical groups. Link specs for the two levels drive the
// per-level algorithm choice; the choice is a pure function of
// (specs, shape, len(buf)), so all ranks agree on it without
// negotiation.
//
// Two compositions exist. When every node holds the same number of
// ranks and the intra level picks the ring, the torus composition
// runs: an intra-node ring reduce-scatter, then each local index
// allreduces its owned segment across nodes (all NICs active at
// once), then an intra-node ring allgather. Uneven node groups — or
// an intra pick that favours latency over bandwidth — fall back to
// the leader composition: binomial reduce to each node leader, the
// picked inter algorithm among leaders, binomial broadcast back down.
func AllreduceHierGroups[E Wire](c *transport.Comm, groups [][]int, intra, inter topology.LinkSpec, buf []E) error {
	nodes := len(groups)
	if nodes == 0 {
		return fmt.Errorf("collective: hierarchical allreduce with no node groups")
	}
	myNode, myLocal := -1, -1
	even := true
	g0 := len(groups[0])
	for n, grp := range groups {
		if len(grp) == 0 {
			return fmt.Errorf("collective: hierarchical allreduce: empty node group %d", n)
		}
		if len(grp) != g0 {
			even = false
		}
		for i, r := range grp {
			if r == c.Rank() {
				myNode, myLocal = n, i
			}
		}
	}
	if myNode < 0 {
		return fmt.Errorf("collective: rank %d not in any node group", c.Rank())
	}
	w := wireOf[E]()
	sp := w.instrument(c, timeline.PhaseAllreduce, w.spans.hier, len(buf))
	defer sp.End()

	local := groups[myNode]
	intraAlg := topology.PickLevelAlg(intra, g0, len(buf))
	if even && intraAlg == topology.LevelRing {
		return hierTorus(w, c, groups, inter, buf, myNode, myLocal)
	}
	return hierLeader(w, c, groups, inter, buf, local)
}

// hierLeader: reduce to node leaders, allreduce among leaders with the
// picked inter algorithm, broadcast back down. Works for any node
// group shapes.
func hierLeader[E Wire](w *wire[E], c *transport.Comm, groups [][]int, inter topology.LinkSpec, buf []E, local []int) error {
	leaders := make([]int, len(groups))
	for n, grp := range groups {
		leaders[n] = grp[0]
	}
	if err := ReduceTree(c, local, buf); err != nil {
		return fmt.Errorf("hier-2level leader%s: reduce: %w", w.label, err)
	}
	if c.Rank() == local[0] {
		interAlg := topology.PickLevelAlg(inter, len(leaders), len(buf))
		if err := allreduceLevel(interAlg, c, leaders, buf); err != nil {
			return fmt.Errorf("hier-2level leader%s: inter-node %v: %w", w.label, interAlg, err)
		}
	}
	if err := BcastTree(c, local, buf); err != nil {
		return fmt.Errorf("hier-2level leader%s: bcast: %w", w.label, err)
	}
	return nil
}

// hierTorus: intra-node ring reduce-scatter, per-local-index
// inter-node allreduce of the owned segment, intra-node ring
// allgather. Requires even groups so segment boundaries agree across
// nodes. With one rank per node it degenerates to the flat inter
// algorithm over the whole buffer; with one node the two ring phases
// alone complete the allreduce.
func hierTorus[E Wire](w *wire[E], c *transport.Comm, groups [][]int, inter topology.LinkSpec, buf []E, myNode, me int) error {
	local := groups[myNode]
	g := len(local)
	n := len(buf)
	next := local[(me+1)%g]
	prev := local[(me-1+g)%g]

	// Intra reduce-scatter: after g−1 steps local index me holds the
	// node-wide sum of segment (me+1) mod g (same schedule as
	// AllreduceRing's first phase).
	for s := 0; s < g-1; s++ {
		sendSeg := ((me-s)%g + g) % g
		recvSeg := ((me-s-1)%g + g) % g
		slo, shi := segment(n, g, sendSeg)
		if err := transport.Send(c, next, w.tags.hierRS+s, buf[slo:shi]); err != nil {
			return fmt.Errorf("hier-2level torus%s: reduce-scatter step %d: %w", w.label, s, err)
		}
		rlo, rhi := segment(n, g, recvSeg)
		got, err := transport.Recv[E](c, prev, w.tags.hierRS+s)
		if err != nil {
			return fmt.Errorf("hier-2level torus%s: reduce-scatter step %d: %w", w.label, s, err)
		}
		if err := w.reduce(buf[rlo:rhi], got); err != nil {
			return fmt.Errorf("hier-2level torus%s: reduce-scatter step %d: %w", w.label, s, err)
		}
	}

	// Inter allreduce: ranks sharing a local index form a cross-node
	// group and reduce the segment they own. The groups are disjoint,
	// so all run concurrently — every node drives all its NICs.
	ownSeg := (me + 1) % g
	lo, hi := segment(n, g, ownSeg)
	if len(groups) > 1 {
		cross := make([]int, len(groups))
		for nd, grp := range groups {
			cross[nd] = grp[me]
		}
		interAlg := topology.PickLevelAlg(inter, len(cross), hi-lo)
		if err := allreduceLevel(interAlg, c, cross, buf[lo:hi]); err != nil {
			return fmt.Errorf("hier-2level torus%s: inter-node %v segment %d: %w", w.label, interAlg, ownSeg, err)
		}
	}

	// Intra allgather: circulate the completed segments (same schedule
	// as AllreduceRing's second phase).
	for s := 0; s < g-1; s++ {
		sendSeg := ((me-s+1)%g + g) % g
		recvSeg := ((me-s)%g + g) % g
		slo, shi := segment(n, g, sendSeg)
		if err := transport.Send(c, next, w.tags.hierAG+s, buf[slo:shi]); err != nil {
			return fmt.Errorf("hier-2level torus%s: allgather step %d: %w", w.label, s, err)
		}
		rlo, rhi := segment(n, g, recvSeg)
		got, err := transport.Recv[E](c, prev, w.tags.hierAG+s)
		if err != nil {
			return fmt.Errorf("hier-2level torus%s: allgather step %d: %w", w.label, s, err)
		}
		copy(buf[rlo:rhi], got)
	}
	return nil
}
