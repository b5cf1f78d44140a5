package horovod

import (
	"fmt"
	"math"

	"segscale/internal/collective"
	"segscale/internal/nn"
	"segscale/internal/topology"
)

// Elastic pieces of the runtime: Horovod 0.20 introduced elastic
// training, where a failed rank shrinks the world in place — the
// survivors re-form communicators over the slots that are still alive
// and training continues without a checkpoint restart. NewRuntimeOver
// builds a runtime over any member list, the full identity included;
// this file holds the node partition hierarchical allreduce runs over
// for such a list, and the movable-root, bit-exact broadcasts that
// re-synchronize parameters, optimizer and batch-norm state when the
// world changes shape.

// nodeGroupsFor partitions comm ranks by the machine node of their
// member slot. members is ascending and Node is monotone in the slot,
// so one ordered pass groups correctly — no map iteration.
func nodeGroupsFor(mach topology.Machine, members []int) [][]int {
	var groups [][]int
	lastNode := -1
	for i, slot := range members {
		n := mach.Node(slot)
		if len(groups) == 0 || n != lastNode {
			groups = append(groups, []int{i})
			lastNode = n
		} else {
			groups[len(groups)-1] = append(groups[len(groups)-1], i)
		}
	}
	return groups
}

// syncGroup returns the world reordered so root leads — the group
// shape BcastTree broadcasts from. Elastic resume needs a movable
// root: comm rank 0 may be a freshly rebuilt replica (its slot died
// and regrew), and state must flow from a survivor.
func (r *Runtime) syncGroup(root int) []int {
	g := make([]int, 0, len(r.world))
	g = append(g, root)
	for _, i := range r.world {
		if i != root {
			g = append(g, i)
		}
	}
	return g
}

// BroadcastParamsFrom overwrites every rank's parameters with the
// root comm rank's — BroadcastParams with a movable root.
func (r *Runtime) BroadcastParamsFrom(root int, params []*nn.Param) error {
	if r.Size() == 1 {
		return nil
	}
	r.probe.Counter("horovod_broadcasts_total").Inc()
	group := r.syncGroup(root)
	for _, p := range params {
		if err := collective.BcastTree(r.Comm, group, p.W.Data); err != nil {
			return fmt.Errorf("horovod: broadcast params: %w", err)
		}
	}
	return nil
}

// BroadcastFrom overwrites buf on every rank with the root comm
// rank's contents. The wire only copies, so float32 payloads
// round-trip bit-exactly.
func (r *Runtime) BroadcastFrom(root int, buf []float32) error {
	if r.Size() == 1 {
		return nil
	}
	if err := collective.BcastTree(r.Comm, r.syncGroup(root), buf); err != nil {
		return fmt.Errorf("horovod: broadcast: %w", err)
	}
	return nil
}

// BroadcastFloat64ExactFrom overwrites buf on every rank with the root
// comm rank's contents, bit-exactly. The wire carries float32 words,
// so each float64 is split into its two IEEE-754 halves bit-cast as
// float32 — BcastTree and the transport only copy, never do
// arithmetic, so the round trip is lossless. Elastic resume uses this
// to re-synchronize batch-norm running statistics: an approximate
// broadcast there would break the byte-identical-rerun guarantee.
func (r *Runtime) BroadcastFloat64ExactFrom(root int, buf []float64) error {
	if r.Size() == 1 {
		return nil
	}
	wire := make([]float32, 2*len(buf))
	for i, v := range buf {
		b := math.Float64bits(v)
		wire[2*i] = math.Float32frombits(uint32(b >> 32))
		wire[2*i+1] = math.Float32frombits(uint32(b))
	}
	if err := collective.BcastTree(r.Comm, r.syncGroup(root), wire); err != nil {
		return fmt.Errorf("horovod: broadcast float64: %w", err)
	}
	for i := range buf {
		hi := uint64(math.Float32bits(wire[2*i]))
		lo := uint64(math.Float32bits(wire[2*i+1]))
		buf[i] = math.Float64frombits(hi<<32 | lo)
	}
	return nil
}
