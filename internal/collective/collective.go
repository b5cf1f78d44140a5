// Package collective implements real, data-carrying collective
// operations — the algorithms whose *costs* internal/netmodel models
// analytically. The same algorithm shapes exist in both packages; unit
// tests verify every implementation against a naive gather-reduce
// reference, which is what makes the distributed-training accuracy
// experiment trustworthy: gradients are combined by this code, not by
// a mock.
//
// All collectives operate over an explicit group of global ranks
// (which enables the hierarchical compositions) and reduce with
// summation — Horovod divides by world size afterwards to average.
//
// Each allreduce schedule is written once, generic over the Wire
// element it carries: float32, or uint16 binary16 words — the
// compressed wire format behind hvd.Compression.fp16, which moves 2
// bytes per element. The schedule (segment decomposition, fold and
// unfold, step counts) is the same on both wires; everything that
// differs lives in one per-wire table: the tag bases, which keep the
// two payload kinds apart on the shared mailboxes, the span-name and
// error-message qualifiers, the bytes per element, and the reduce hop.
// On the binary16 wire every hop accumulates in float32 — decode both
// halves, add, re-encode — so only the stored value is 16-bit, never
// the arithmetic. Encode and decode at the fused-buffer boundary
// happen once, in the Horovod runtime's pack/unpack; these
// collectives never widen the wire. The *16 names are instantiations
// kept for callers that name the binary16 wire explicitly.
//
// Misuse — a rank outside its group, mismatched buffer lengths, a
// machine/world mismatch — is reported as a returned error with
// context, never a panic: a panicking collective tears down every
// in-process rank at once, where an error lets the caller attribute
// the failure to one rank and unwind cleanly.
package collective

import (
	"fmt"

	"segscale/internal/fp16"
	"segscale/internal/telemetry"
	"segscale/internal/timeline"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

// Wire is the set of element types a collective carries: float32, and
// uint16 holding binary16 bit patterns.
type Wire = transport.Wire

// tagBases are one wire's tag bases. They keep concurrent phases of
// composed collectives from colliding: each collective call consumes
// tags [base, base+steps). The fault injector hashes tags, so moving a
// base moves every chaos draw that depends on it.
type tagBases struct {
	naive, ring, rd, reduce, bcast, rab, hierRS, hierAG int
}

// wire is everything that differs between the two payload element
// types; every schedule reads its wire once per call.
type wire[E Wire] struct {
	tags tagBases
	// span suffixes the span name; label qualifies error messages.
	span, label string
	// bytes is the modelled wire size of one element.
	bytes int
	// add is the reduce hop, dst += src elementwise. Lengths are
	// checked by reduce before it runs.
	add func(dst, src []E)
}

var (
	wire32 = wire[float32]{
		tags: tagBases{
			naive: 3 << 16, ring: 1 << 16, rd: 2 << 16, reduce: 4 << 16,
			bcast: 5 << 16, rab: 7 << 16, hierRS: 8 << 16, hierAG: 9 << 16,
		},
		bytes: 4,
		add:   addFloat32,
	}
	wire16 = wire[uint16]{
		tags: tagBases{
			naive: 10 << 16, ring: 11 << 16, rd: 12 << 16, reduce: 13 << 16,
			bcast: 14 << 16, rab: 15 << 16, hierRS: 16 << 16, hierAG: 17 << 16,
		},
		span:  "-fp16",
		label: " fp16",
		bytes: 2,
		add:   addBinary16,
	}
)

// tagGather is AllgatherRing's base; it carries float32 shards only.
const tagGather = 6 << 16

// wireOf returns the table for element type E.
func wireOf[E Wire]() *wire[E] {
	if w, ok := any(&wire32).(*wire[E]); ok {
		return w
	}
	return any(&wire16).(*wire[E])
}

// instrument opens a span and bumps the per-algorithm op/byte
// counters on the caller's probe. Uninstrumented communicators (nil
// probe, the default) pay one branch per nil-safe telemetry call.
func (w *wire[E]) instrument(c *transport.Comm, phase, alg string, n int) telemetry.Span {
	p := c.Probe()
	if p == nil {
		return telemetry.Span{}
	}
	p.Counter("collective_ops_total").Inc()
	p.Counter("collective_payload_bytes").Add(float64(w.bytes * n))
	return p.Span(phase, alg+w.span)
}

// reduce adds src into dst with the wire's reduce hop.
func (w *wire[E]) reduce(dst, src []E) error {
	if len(dst) != len(src) {
		return fmt.Errorf("collective: reduce length mismatch %d vs %d", len(dst), len(src))
	}
	w.add(dst, src)
	return nil
}

func addFloat32(dst, src []float32) {
	for i, v := range src {
		dst[i] += v
	}
}

// addBinary16 reduces with float32 accumulation: each hop decodes both
// binary16 operands, adds in float32, and re-encodes with
// round-to-nearest-even. Accumulating in the wider type at every hop
// is what keeps the compressed allreduce numerically honest.
func addBinary16(dst, src []uint16) {
	for i, v := range src {
		dst[i] = fp16.FromFloat32(fp16.ToFloat32(dst[i]) + fp16.ToFloat32(v))
	}
}

// indexIn returns the caller's index within group; a rank outside the
// group is always a caller bug, reported as an error.
func indexIn(group []int, rank int) (int, error) {
	for i, r := range group {
		if r == rank {
			return i, nil
		}
	}
	return 0, fmt.Errorf("collective: rank %d not in group %v", rank, group)
}

// segment splits length n into p nearly-equal pieces; returns the
// [lo,hi) bounds of piece i. Earlier pieces get the remainder, the
// standard MPI decomposition.
func segment(n, p, i int) (lo, hi int) {
	base := n / p
	rem := n % p
	lo = i*base + min(i, rem)
	size := base
	if i < rem {
		size++
	}
	return lo, lo + size
}

// AllreduceNaive gathers every contribution to group[0], reduces, and
// broadcasts the result linearly. O(p) time and the reference other
// algorithms are verified against.
func AllreduceNaive[E Wire](c *transport.Comm, group []int, buf []E) error {
	w := wireOf[E]()
	sp := w.instrument(c, timeline.PhaseAllreduce, "naive", len(buf))
	defer sp.End()
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("allreduce naive%s: %w", w.label, err)
	}
	root := group[0]
	if me == 0 {
		for _, r := range group[1:] {
			got, err := transport.Recv[E](c, r, w.tags.naive)
			if err != nil {
				return fmt.Errorf("allreduce naive%s: rank %d contribution: %w", w.label, r, err)
			}
			if err := w.reduce(buf, got); err != nil {
				return fmt.Errorf("allreduce naive%s: rank %d contribution: %w", w.label, r, err)
			}
		}
		for _, r := range group[1:] {
			if err := transport.Send(c, r, w.tags.naive+1, buf); err != nil {
				return fmt.Errorf("allreduce naive%s: result to rank %d: %w", w.label, r, err)
			}
		}
		return nil
	}
	if err := transport.Send(c, root, w.tags.naive, buf); err != nil {
		return fmt.Errorf("allreduce naive%s: contribution to root: %w", w.label, err)
	}
	if err := transport.RecvInto(c, root, w.tags.naive+1, buf); err != nil {
		return fmt.Errorf("allreduce naive%s: result from root: %w", w.label, err)
	}
	return nil
}

// AllreduceRing is the bandwidth-optimal ring: p−1 reduce-scatter
// steps followed by p−1 allgather steps over ceil(n/p) segments.
func AllreduceRing[E Wire](c *transport.Comm, group []int, buf []E) error {
	p := len(group)
	if p <= 1 {
		return nil
	}
	w := wireOf[E]()
	sp := w.instrument(c, timeline.PhaseAllreduce, "ring", len(buf))
	defer sp.End()
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("allreduce ring%s: %w", w.label, err)
	}
	next := group[(me+1)%p]
	prev := group[(me-1+p)%p]
	n := len(buf)

	// Reduce-scatter: after step s, each rank holds the full sum of
	// segment (me+1) mod p ... converging to segment (me+1).
	for s := 0; s < p-1; s++ {
		sendSeg := ((me-s)%p + p) % p
		recvSeg := ((me-s-1)%p + p) % p
		slo, shi := segment(n, p, sendSeg)
		if err := transport.Send(c, next, w.tags.ring+s, buf[slo:shi]); err != nil {
			return fmt.Errorf("allreduce ring%s: reduce-scatter step %d: %w", w.label, s, err)
		}
		rlo, rhi := segment(n, p, recvSeg)
		got, err := transport.Recv[E](c, prev, w.tags.ring+s)
		if err != nil {
			return fmt.Errorf("allreduce ring%s: reduce-scatter step %d: %w", w.label, s, err)
		}
		if err := w.reduce(buf[rlo:rhi], got); err != nil {
			return fmt.Errorf("allreduce ring%s: reduce-scatter step %d: %w", w.label, s, err)
		}
	}
	// Allgather: circulate the completed segments.
	for s := 0; s < p-1; s++ {
		sendSeg := ((me-s+1)%p + p) % p
		recvSeg := ((me-s)%p + p) % p
		slo, shi := segment(n, p, sendSeg)
		if err := transport.Send(c, next, w.tags.ring+p+s, buf[slo:shi]); err != nil {
			return fmt.Errorf("allreduce ring%s: allgather step %d: %w", w.label, s, err)
		}
		rlo, rhi := segment(n, p, recvSeg)
		got, err := transport.Recv[E](c, prev, w.tags.ring+p+s)
		if err != nil {
			return fmt.Errorf("allreduce ring%s: allgather step %d: %w", w.label, s, err)
		}
		copy(buf[rlo:rhi], got)
	}
	return nil
}

// AllreduceRecursiveDoubling is the latency-optimal log₂(p)-step
// exchange, with the MPICH-style fold for non-power-of-two groups.
func AllreduceRecursiveDoubling[E Wire](c *transport.Comm, group []int, buf []E) error {
	p := len(group)
	if p <= 1 {
		return nil
	}
	w := wireOf[E]()
	sp := w.instrument(c, timeline.PhaseAllreduce, "recursive-doubling", len(buf))
	defer sp.End()
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("allreduce recursive-doubling%s: %w", w.label, err)
	}
	pow := 1
	for pow*2 <= p {
		pow *= 2
	}
	rem := p - pow

	// Fold: the first 2·rem ranks pair up; evens donate and go idle.
	newrank := -1
	switch {
	case me < 2*rem && me%2 == 0:
		if err := transport.Send(c, group[me+1], w.tags.rd, buf); err != nil {
			return fmt.Errorf("allreduce recursive-doubling%s: fold: %w", w.label, err)
		}
	case me < 2*rem: // odd
		got, err := transport.Recv[E](c, group[me-1], w.tags.rd)
		if err != nil {
			return fmt.Errorf("allreduce recursive-doubling%s: fold: %w", w.label, err)
		}
		if err := w.reduce(buf, got); err != nil {
			return fmt.Errorf("allreduce recursive-doubling%s: fold: %w", w.label, err)
		}
		newrank = me / 2
	default:
		newrank = me - rem
	}

	if newrank >= 0 {
		old := func(nr int) int {
			if nr < rem {
				return nr*2 + 1
			}
			return nr + rem
		}
		for dist := 1; dist < pow; dist *= 2 {
			partner := group[old(newrank^dist)]
			got, err := transport.SendRecv(c, partner, w.tags.rd+1+dist, buf, partner, w.tags.rd+1+dist)
			if err != nil {
				return fmt.Errorf("allreduce recursive-doubling%s: distance %d: %w", w.label, dist, err)
			}
			if err := w.reduce(buf, got); err != nil {
				return fmt.Errorf("allreduce recursive-doubling%s: distance %d: %w", w.label, dist, err)
			}
		}
	}

	// Unfold: odd ranks return the result to their even partner.
	if me < 2*rem {
		if me%2 == 0 {
			if err := transport.RecvInto(c, group[me+1], w.tags.rd+2*pow, buf); err != nil {
				return fmt.Errorf("allreduce recursive-doubling%s: unfold: %w", w.label, err)
			}
		} else {
			if err := transport.Send(c, group[me-1], w.tags.rd+2*pow, buf); err != nil {
				return fmt.Errorf("allreduce recursive-doubling%s: unfold: %w", w.label, err)
			}
		}
	}
	return nil
}

// ReduceTree reduces every rank's buf into group[0] using a binomial
// tree (non-roots' buffers are left with partial sums).
func ReduceTree[E Wire](c *transport.Comm, group []int, buf []E) error {
	w := wireOf[E]()
	p := len(group)
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("reduce tree%s: %w", w.label, err)
	}
	for dist := 1; dist < p; dist *= 2 {
		if me%(2*dist) == 0 {
			src := me + dist
			if src < p {
				got, err := transport.Recv[E](c, group[src], w.tags.reduce+dist)
				if err != nil {
					return fmt.Errorf("reduce tree%s: from rank %d: %w", w.label, group[src], err)
				}
				if err := w.reduce(buf, got); err != nil {
					return fmt.Errorf("reduce tree%s: from rank %d: %w", w.label, group[src], err)
				}
			}
		} else if me%dist == 0 {
			if err := transport.Send(c, group[me-dist], w.tags.reduce+dist, buf); err != nil {
				return fmt.Errorf("reduce tree%s: to rank %d: %w", w.label, group[me-dist], err)
			}
			return nil
		}
	}
	return nil
}

// BcastTree broadcasts group[0]'s buf to the group via binomial tree.
func BcastTree[E Wire](c *transport.Comm, group []int, buf []E) error {
	w := wireOf[E]()
	sp := w.instrument(c, timeline.PhaseBcast, "binomial-tree", len(buf))
	defer sp.End()
	p := len(group)
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("bcast tree%s: %w", w.label, err)
	}
	// Highest power of two ≥ p.
	top := 1
	for top < p {
		top *= 2
	}
	for dist := top / 2; dist >= 1; dist /= 2 {
		if me%(2*dist) == 0 {
			dst := me + dist
			if dst < p {
				if err := transport.Send(c, group[dst], w.tags.bcast+dist, buf); err != nil {
					return fmt.Errorf("bcast tree%s: to rank %d: %w", w.label, group[dst], err)
				}
			}
		} else if me%dist == 0 {
			if err := transport.RecvInto(c, group[me-dist], w.tags.bcast+dist, buf); err != nil {
				return fmt.Errorf("bcast tree%s: from rank %d: %w", w.label, group[me-dist], err)
			}
		}
	}
	return nil
}

// AllgatherRing circulates per-rank shards around the ring. shards[i]
// must be the shard contributed by group index i; only shards[me] need
// be filled on entry, and all are filled on return.
func AllgatherRing(c *transport.Comm, group []int, shards [][]float32) error {
	p := len(group)
	if p <= 1 {
		return nil
	}
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("allgather ring: %w", err)
	}
	if len(shards) != p {
		return fmt.Errorf("allgather ring: %d shards for %d ranks", len(shards), p)
	}
	sp := wire32.instrument(c, timeline.PhaseAllgather, "ring", len(shards[me]))
	defer sp.End()
	next := group[(me+1)%p]
	prev := group[(me-1+p)%p]
	for s := 0; s < p-1; s++ {
		sendIdx := ((me-s)%p + p) % p
		recvIdx := ((me-s-1)%p + p) % p
		if err := c.Send(next, tagGather+s, shards[sendIdx]); err != nil {
			return fmt.Errorf("allgather ring: step %d: %w", s, err)
		}
		got, err := c.Recv(prev, tagGather+s)
		if err != nil {
			return fmt.Errorf("allgather ring: step %d: %w", s, err)
		}
		shards[recvIdx] = got
	}
	return nil
}

// AllreduceHierLeader composes the node-leader hierarchy Horovod uses
// under HOROVOD_HIERARCHICAL_ALLREDUCE: binomial reduce to each node
// leader, recursive-doubling allreduce among the leaders, binomial
// broadcast back down. The machine layout decides the groups; the
// world must equal mach.Ranks() ranks.
func AllreduceHierLeader[E Wire](c *transport.Comm, mach topology.Machine, buf []E) error {
	if c.Size() != mach.Ranks() {
		return fmt.Errorf("collective: world %d != machine ranks %d", c.Size(), mach.Ranks())
	}
	label := wireOf[E]().label
	node := mach.Node(c.Rank())
	local := mach.NodeRanks(node)
	if err := ReduceTree(c, local, buf); err != nil {
		return fmt.Errorf("hierarchical allreduce%s: node %d: %w", label, node, err)
	}
	if mach.IsLeader(c.Rank()) {
		if err := AllreduceRecursiveDoubling(c, mach.Leaders(), buf); err != nil {
			return fmt.Errorf("hierarchical allreduce%s: leaders: %w", label, err)
		}
	}
	if err := BcastTree(c, local, buf); err != nil {
		return fmt.Errorf("hierarchical allreduce%s: node %d: %w", label, node, err)
	}
	return nil
}

// Scale multiplies buf by 1/worldSize — the averaging step Horovod
// applies after its summing allreduce.
func Scale(buf []float32, worldSize int) {
	inv := float32(1) / float32(worldSize)
	for i := range buf {
		buf[i] *= inv
	}
}

// Binary16 instantiations under the names callers outside this package
// use for the compressed wire.

// AllreduceRing16 is AllreduceRing over the binary16 wire.
func AllreduceRing16(c *transport.Comm, group []int, buf []uint16) error {
	return AllreduceRing(c, group, buf)
}

// AllreduceRecursiveDoubling16 is AllreduceRecursiveDoubling over the
// binary16 wire.
func AllreduceRecursiveDoubling16(c *transport.Comm, group []int, buf []uint16) error {
	return AllreduceRecursiveDoubling(c, group, buf)
}

// AllreduceRabenseifner16 is AllreduceRabenseifner over the binary16
// wire.
func AllreduceRabenseifner16(c *transport.Comm, group []int, buf []uint16) error {
	return AllreduceRabenseifner(c, group, buf)
}

// AllreduceHierLeader16 is AllreduceHierLeader over the binary16 wire.
func AllreduceHierLeader16(c *transport.Comm, mach topology.Machine, buf []uint16) error {
	return AllreduceHierLeader(c, mach, buf)
}

// AllreduceHierGroups16 is AllreduceHierGroups over the binary16 wire.
func AllreduceHierGroups16(c *transport.Comm, groups [][]int, intra, inter topology.LinkSpec, buf []uint16) error {
	return AllreduceHierGroups(c, groups, intra, inter, buf)
}
