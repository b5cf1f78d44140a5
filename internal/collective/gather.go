package collective

import (
	"fmt"

	"segscale/internal/transport"
)

const (
	tagGatherOp  = 8 << 16
	tagScatter   = 9 << 16
	tagRS        = 10 << 16
	tagBarrierOp = 11 << 16
)

// Gather collects every rank's buf at group[0] and returns the
// per-rank slices there (indexed by group position); other ranks get
// nil. Linear receive at the root, like small-communicator MPI_Gather.
func Gather(c *transport.Comm, group []int, buf []float32) ([][]float32, error) {
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return nil, fmt.Errorf("gather: %w", err)
	}
	if me != 0 {
		if err := c.Send(group[0], tagGatherOp+me, buf); err != nil {
			return nil, fmt.Errorf("gather: to root: %w", err)
		}
		return nil, nil
	}
	out := make([][]float32, len(group))
	out[0] = append([]float32(nil), buf...)
	for i := 1; i < len(group); i++ {
		got, err := c.Recv(group[i], tagGatherOp+i)
		if err != nil {
			return nil, fmt.Errorf("gather: from rank %d: %w", group[i], err)
		}
		out[i] = got
	}
	return out, nil
}

// Scatter distributes group[0]'s shards (one per rank, in group
// order) and returns this rank's shard. Non-roots pass nil shards.
func Scatter(c *transport.Comm, group []int, shards [][]float32) ([]float32, error) {
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return nil, fmt.Errorf("scatter: %w", err)
	}
	if me == 0 {
		if len(shards) != len(group) {
			return nil, fmt.Errorf("scatter: %d shards for %d ranks", len(shards), len(group))
		}
		for i := 1; i < len(group); i++ {
			if err := c.Send(group[i], tagScatter+i, shards[i]); err != nil {
				return nil, fmt.Errorf("scatter: to rank %d: %w", group[i], err)
			}
		}
		return append([]float32(nil), shards[0]...), nil
	}
	got, err := c.Recv(group[0], tagScatter+me)
	if err != nil {
		return nil, fmt.Errorf("scatter: from root: %w", err)
	}
	return got, nil
}

// ReduceScatter sums all ranks' equal-length buffers and leaves each
// rank holding its segment of the sum (the standard MPI segment
// layout; returns the [lo,hi) bounds too). Implemented as the ring
// reduce-scatter half of the ring allreduce.
func ReduceScatter(c *transport.Comm, group []int, buf []float32) (lo, hi int, err error) {
	p := len(group)
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return 0, 0, fmt.Errorf("reduce-scatter: %w", err)
	}
	if p == 1 {
		return 0, len(buf), nil
	}
	next := group[(me+1)%p]
	prev := group[(me-1+p)%p]
	n := len(buf)
	for s := 0; s < p-1; s++ {
		sendSeg := ((me-s)%p + p) % p
		recvSeg := ((me-s-1)%p + p) % p
		slo, shi := segment(n, p, sendSeg)
		if err := c.Send(next, tagRS+s, buf[slo:shi]); err != nil {
			return 0, 0, fmt.Errorf("reduce-scatter: step %d: %w", s, err)
		}
		rlo, rhi := segment(n, p, recvSeg)
		got, err := c.Recv(prev, tagRS+s)
		if err != nil {
			return 0, 0, fmt.Errorf("reduce-scatter: step %d: %w", s, err)
		}
		if err := wire32.reduce(buf[rlo:rhi], got); err != nil {
			return 0, 0, fmt.Errorf("reduce-scatter: step %d: %w", s, err)
		}
	}
	// After p−1 steps this rank holds the full sum of segment (me+1).
	lo, hi = segment(n, p, (me+1)%p)
	return lo, hi, nil
}
