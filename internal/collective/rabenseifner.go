package collective

import (
	"fmt"

	"segscale/internal/timeline"
	"segscale/internal/transport"
)

// AllreduceRabenseifner implements Rabenseifner's algorithm:
// recursive-halving reduce-scatter followed by recursive-doubling
// allgather. It has the ring's 2·(p−1)/p·n bandwidth term with only
// 2·log₂(p) latency steps — the shape MPI libraries pick for large
// messages on small-to-medium communicators. Non-power-of-two groups
// use the MPICH fold (evens donate to odds, then unfold).
func AllreduceRabenseifner[E Wire](c *transport.Comm, group []int, buf []E) error {
	p := len(group)
	if p <= 1 {
		return nil
	}
	w := wireOf[E]()
	sp := w.instrument(c, timeline.PhaseAllreduce, "rabenseifner", len(buf))
	defer sp.End()
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("allreduce rabenseifner%s: %w", w.label, err)
	}
	n := len(buf)

	pow := 1
	for pow*2 <= p {
		pow *= 2
	}
	rem := p - pow

	// Fold to a power-of-two active set.
	newrank := -1
	switch {
	case me < 2*rem && me%2 == 0:
		if err := transport.Send(c, group[me+1], w.tags.rab, buf); err != nil {
			return fmt.Errorf("allreduce rabenseifner%s: fold: %w", w.label, err)
		}
	case me < 2*rem:
		got, err := transport.Recv[E](c, group[me-1], w.tags.rab)
		if err != nil {
			return fmt.Errorf("allreduce rabenseifner%s: fold: %w", w.label, err)
		}
		if err := w.reduce(buf, got); err != nil {
			return fmt.Errorf("allreduce rabenseifner%s: fold: %w", w.label, err)
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
		// Reduce-scatter by recursive halving: each step trades half
		// of the currently-owned window with the partner and reduces
		// the half it keeps.
		lo, hi := 0, n
		step := 0
		for dist := 1; dist < pow; dist *= 2 {
			partner := group[old(newrank^dist)]
			mid := lo + (hi-lo)/2
			var sendLo, sendHi, keepLo, keepHi int
			if newrank&dist == 0 {
				// Keep the lower half, send the upper.
				sendLo, sendHi, keepLo, keepHi = mid, hi, lo, mid
			} else {
				sendLo, sendHi, keepLo, keepHi = lo, mid, mid, hi
			}
			got, err := transport.SendRecv(c, partner, w.tags.rab+1+step, buf[sendLo:sendHi], partner, w.tags.rab+1+step)
			if err != nil {
				return fmt.Errorf("allreduce rabenseifner%s: halving step %d: %w", w.label, step, err)
			}
			if err := w.reduce(buf[keepLo:keepHi], got); err != nil {
				return fmt.Errorf("allreduce rabenseifner%s: halving step %d: %w", w.label, step, err)
			}
			lo, hi = keepLo, keepHi
			step++
		}

		// Allgather by recursive doubling: windows merge back in the
		// reverse order of the halving.
		type window struct{ lo, hi int }
		// Reconstruct the window bounds visited on the way down so
		// the way up mirrors them exactly.
		windows := make([]window, 0, step+1)
		wlo, whi := 0, n
		windows = append(windows, window{wlo, whi})
		for dist := 1; dist < pow; dist *= 2 {
			mid := wlo + (whi-wlo)/2
			if newrank&dist == 0 {
				whi = mid
			} else {
				wlo = mid
			}
			windows = append(windows, window{wlo, whi})
		}
		step--
		for dist := pow / 2; dist >= 1; dist /= 2 {
			partner := group[old(newrank^dist)]
			cur := windows[step+1]  // what I own (fully reduced)
			parent := windows[step] // the window the exchange completes
			var partnerLo, partnerHi int
			if cur.lo == parent.lo {
				partnerLo, partnerHi = cur.hi, parent.hi
			} else {
				partnerLo, partnerHi = parent.lo, cur.lo
			}
			got, err := transport.SendRecv(c, partner, w.tags.rab+64+step, buf[cur.lo:cur.hi], partner, w.tags.rab+64+step)
			if err != nil {
				return fmt.Errorf("allreduce rabenseifner%s: doubling step %d: %w", w.label, step, err)
			}
			copy(buf[partnerLo:partnerHi], got)
			step--
		}
	}

	// Unfold: odds return the result to their even partners.
	if me < 2*rem {
		if me%2 == 0 {
			if err := transport.RecvInto(c, group[me+1], w.tags.rab+2048, buf); err != nil {
				return fmt.Errorf("allreduce rabenseifner%s: unfold: %w", w.label, err)
			}
		} else {
			if err := transport.Send(c, group[me-1], w.tags.rab+2048, buf); err != nil {
				return fmt.Errorf("allreduce rabenseifner%s: unfold: %w", w.label, err)
			}
		}
	}
	return nil
}
