package horovod

import (
	"fmt"
	"sync"

	"segscale/internal/collective"
	"segscale/internal/fp16"
	"segscale/internal/netmodel"
	"segscale/internal/nn"
	"segscale/internal/telemetry"
	"segscale/internal/timeline"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

// Runtime is the real (data-carrying) Horovod: it owns one rank's
// communicator and performs fused gradient allreduce and parameter
// broadcast, exactly as hvd.DistributedOptimizer and
// hvd.broadcast_global_variables do.
type Runtime struct {
	Comm *transport.Comm
	Mach topology.Machine
	Cfg  Config

	world   []int
	fused   []float32 // reusable fusion buffer
	fused16 []uint16  // reusable binary16 wire buffer (FP16Compression)

	// nodeGroups partitions comm ranks by the machine node their
	// member slot lives on — the partition every hierarchical
	// allreduce runs over, prebuilt so the step path never rebuilds it.
	nodeGroups [][]int

	// Fusion-plan cache: the grouping is a pure function of the
	// parameter-size vector and the threshold, and the trainer submits
	// an identically-shaped list every step, so the plan is computed
	// once and replayed — the planner never runs on the steady-state
	// step path.
	planSizes []int
	plan      [][]int

	// probe is the rank's telemetry handle, cached from the
	// communicator at construction; nil (the default) costs one
	// branch per instrumentation site.
	probe *telemetry.Probe

	// commErr is the sticky first communication error from a context
	// that cannot return one — the SyncBN closure fires mid-forward —
	// surfaced via CommErr at the next step boundary.
	commErrMu sync.Mutex
	commErr   error
}

// NewRuntime builds one rank's runtime over the machine's full world,
// where comm rank i stands for machine slot i. The machine layout must
// match the world size (it defines the node groups hierarchical
// allreduce uses); a mismatch or an invalid configuration is reported
// as an error, never a panic — in a multi-rank world a panicking
// constructor tears down every in-process rank at once.
func NewRuntime(c *transport.Comm, mach topology.Machine, cfg Config) (*Runtime, error) {
	if mach.Ranks() != c.Size() {
		return nil, fmt.Errorf("horovod: machine has %d ranks, world has %d", mach.Ranks(), c.Size())
	}
	members := make([]int, c.Size())
	for i := range members {
		members[i] = i
	}
	return NewRuntimeOver(c, mach, members, cfg)
}

// NewRuntimeOver builds one rank's runtime over a world whose comm rank
// i stands for machine slot members[i]: the machine's full identity
// for a fixed world, the ascending survivor slots after an elastic
// shrink. members must be strictly ascending, within the machine, and
// exactly as long as the world.
func NewRuntimeOver(c *transport.Comm, mach topology.Machine, members []int, cfg Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := mach.Validate(); err != nil {
		return nil, err
	}
	if len(members) != c.Size() {
		return nil, fmt.Errorf("horovod: %d members, world has %d ranks", len(members), c.Size())
	}
	for i, s := range members {
		if s < 0 || s >= mach.Ranks() {
			return nil, fmt.Errorf("horovod: member slot %d outside machine of %d ranks", s, mach.Ranks())
		}
		if i > 0 && s <= members[i-1] {
			return nil, fmt.Errorf("horovod: member slots not strictly ascending at index %d", i)
		}
	}
	world := make([]int, c.Size())
	for i := range world {
		world[i] = i
	}
	return &Runtime{
		Comm: c, Mach: mach, Cfg: cfg,
		world:      world,
		nodeGroups: nodeGroupsFor(mach, members),
		probe:      c.Probe(),
	}, nil
}

// Rank returns this runtime's rank.
func (r *Runtime) Rank() int { return r.Comm.Rank() }

// Size returns the world size.
func (r *Runtime) Size() int { return r.Comm.Size() }

// RecordCommErr stores err as the runtime's sticky communication
// error if it is the first (nil and repeat errors are ignored). It is
// the error channel for call sites that cannot return one — the
// synchronized-batch-norm closure runs mid-forward.
func (r *Runtime) RecordCommErr(err error) {
	if err == nil {
		return
	}
	r.commErrMu.Lock()
	if r.commErr == nil {
		r.commErr = err
	}
	r.commErrMu.Unlock()
}

// CommErr returns the sticky communication error (nil while healthy).
// The training loop polls it at step boundaries.
func (r *Runtime) CommErr() error {
	r.commErrMu.Lock()
	defer r.commErrMu.Unlock()
	return r.commErr
}

// BroadcastParams overwrites every rank's parameters with rank 0's —
// the initial weight synchronisation of distributed training.
func (r *Runtime) BroadcastParams(params []*nn.Param) error {
	r.probe.Counter("horovod_broadcasts_total").Inc()
	for _, p := range params {
		if err := collective.BcastTree(r.Comm, r.world, p.W.Data); err != nil {
			return fmt.Errorf("horovod: broadcast params: %w", err)
		}
	}
	return nil
}

// fusedBucketsBytes spaces histogram buckets for fused-buffer sizes
// from 4 KiB to 256 MiB.
var fusedBucketsBytes = telemetry.ExpBuckets(4<<10, 4, 9)

// AllreduceGrads averages gradients across all ranks in place,
// fusing consecutive tensors up to the configured threshold per
// buffer. Every rank must call it with an identically-shaped
// parameter list (guaranteed by deterministic model construction).
//
// Under FP16Compression the fused buffer is encoded to binary16 once
// at pack, the collective runs over the []uint16 wire (2 bytes per
// element, which every byte counter below reports), and the result is
// decoded once at unpack — hvd.Compression.fp16 as a real wire
// format, not a precision simulation.
func (r *Runtime) AllreduceGrads(params []*nn.Param) error {
	if r.Size() == 1 {
		return nil
	}
	elemBytes := 4
	if r.Cfg.FP16Compression {
		elemBytes = 2
	}
	groups := r.fusionPlan(params)
	for _, group := range groups {
		n := 0
		for _, i := range group {
			n += params[i].G.Len()
		}
		if cap(r.fused) < n {
			r.fused = make([]float32, n) //seglint:ignore hotalloc fusion buffer grows to the largest group once, then is reused every step
		}
		buf := r.fused[:n]

		r.probe.Counter("horovod_fused_buffers_total").Inc()
		r.probe.Counter("horovod_fused_bytes").Add(float64(elemBytes * n))
		r.probe.Histogram("horovod_fused_buffer_bytes", fusedBucketsBytes).Observe(float64(elemBytes * n))
		if r.Cfg.FusionThreshold > 0 {
			// Fusion-buffer fill: how much of the configured budget the
			// planner actually packed — low fill at scale means the
			// threshold is mis-tuned for the tensor-size distribution.
			r.probe.Gauge("horovod_fusion_fill_ratio").Set(float64(elemBytes*n) / float64(r.Cfg.FusionThreshold))
		}

		if r.Cfg.FP16Compression {
			if cap(r.fused16) < n {
				r.fused16 = make([]uint16, n) //seglint:ignore hotalloc wire buffer grows to the largest group once, then is reused every step
			}
			buf16 := r.fused16[:n]

			pack := r.probe.Span(timeline.PhaseMemcpy, "pack")
			packFused(buf, params, group)
			err := fp16.Encode(buf, buf16)
			pack.End()
			if err != nil {
				return fmt.Errorf("horovod: allreduce grads: %w", err)
			}

			if err := allreduce(r, buf16); err != nil {
				return fmt.Errorf("horovod: allreduce grads: %w", err)
			}

			unpack := r.probe.Span(timeline.PhaseMemcpy, "unpack")
			err = fp16.Decode(buf16, buf)
			if err == nil {
				collective.Scale(buf, r.Size())
				unpackFused(params, group, buf)
			}
			unpack.End()
			if err != nil {
				return fmt.Errorf("horovod: allreduce grads: %w", err)
			}
			continue
		}

		pack := r.probe.Span(timeline.PhaseMemcpy, "pack")
		packFused(buf, params, group)
		pack.End()

		if err := allreduce(r, buf); err != nil {
			return fmt.Errorf("horovod: allreduce grads: %w", err)
		}
		collective.Scale(buf, r.Size())

		unpack := r.probe.Span(timeline.PhaseMemcpy, "unpack")
		unpackFused(params, group, buf)
		unpack.End()
	}
	return nil
}

// fusionPlan returns the cached fusion grouping for params, recomputing
// it only when the parameter-size vector differs from the cached one —
// in practice once per runtime, since deterministic model construction
// gives every step an identically-shaped list.
func (r *Runtime) fusionPlan(params []*nn.Param) [][]int {
	same := len(r.planSizes) == len(params)
	if same {
		for i, p := range params {
			if r.planSizes[i] != 4*p.G.Len() {
				same = false
				break
			}
		}
	}
	if same {
		return r.plan
	}
	r.planSizes = r.planSizes[:0]
	for _, p := range params {
		r.planSizes = append(r.planSizes, 4*p.G.Len()) //seglint:ignore hotalloc plan miss: runs once per parameter-size vector, then cached
	}
	r.plan = PlanFusion(r.planSizes, r.Cfg.FusionThreshold)
	return r.plan
}

// packFused copies each grouped tensor's gradient back-to-back into
// the fusion buffer — the memcpy half of Horovod's tensor fusion that
// runs once per group per step.
//
//seglint:hotpath per-step gradient pack into the reused fusion buffer
func packFused(buf []float32, params []*nn.Param, group []int) {
	off := 0
	for _, i := range group {
		copy(buf[off:], params[i].G.Data)
		off += params[i].G.Len()
	}
}

// unpackFused scatters the averaged fusion buffer back into the
// grouped tensors' gradients.
//
//seglint:hotpath per-step gradient unpack from the reused fusion buffer
func unpackFused(params []*nn.Param, group []int, buf []float32) {
	off := 0
	for _, i := range group {
		copy(params[i].G.Data, buf[off:off+params[i].G.Len()])
		off += params[i].G.Len()
	}
}

// allreduce dispatches one fused buffer — float32, or binary16 words
// under FP16Compression — to the configured collective.
func allreduce[E collective.Wire](r *Runtime, buf []E) error {
	switch r.Cfg.ResolveAlgorithm() {
	case netmodel.AlgHierLeader:
		// Members are strictly ascending machine slots, so a world as
		// large as the machine is its full identity.
		if r.Size() == r.Mach.Ranks() {
			return collective.AllreduceHierLeader(r.Comm, r.Mach, buf)
		}
		// The classic leader hierarchy assumes the full machine; a
		// shrunken world runs the group form over the survivor
		// partition instead.
		fallthrough
	case netmodel.AlgHierTwoLevel:
		intra, inter := topology.SummitLinkSpecs()
		return collective.AllreduceHierGroups(r.Comm, r.nodeGroups, intra, inter, buf)
	case netmodel.AlgRecursiveDoubling:
		return collective.AllreduceRecursiveDoubling(r.Comm, r.world, buf)
	case netmodel.AlgRabenseifner:
		return collective.AllreduceRabenseifner(r.Comm, r.world, buf)
	default:
		return collective.AllreduceRing(r.Comm, r.world, buf)
	}
}

// AllreduceSumFloat64 sums a float64 vector elementwise across ranks
// in place — the reduction synchronized batch norm uses for its
// statistics. Values ride the float32 collective.
func (r *Runtime) AllreduceSumFloat64(buf []float64) error {
	if r.Size() == 1 {
		return nil
	}
	f := make([]float32, len(buf))
	for i, v := range buf {
		f[i] = float32(v)
	}
	if err := collective.AllreduceRing(r.Comm, r.world, f); err != nil {
		return fmt.Errorf("horovod: allreduce float64: %w", err)
	}
	for i := range buf {
		buf[i] = float64(f[i])
	}
	return nil
}

// Allgather collects each rank's (possibly differently-sized) vector
// and returns all contributions indexed by rank — hvd.allgather.
func (r *Runtime) Allgather(local []float32) ([][]float32, error) {
	shards := make([][]float32, r.Size())
	shards[r.Rank()] = local
	if err := collective.AllgatherRing(r.Comm, r.world, shards); err != nil {
		return nil, fmt.Errorf("horovod: allgather: %w", err)
	}
	return shards, nil
}

// AllreduceScalar averages one float64 across ranks (used for loss
// and metric reporting).
func (r *Runtime) AllreduceScalar(v float64) (float64, error) {
	buf := []float32{float32(v)}
	if err := collective.AllreduceRing(r.Comm, r.world, buf); err != nil {
		return 0, fmt.Errorf("horovod: allreduce scalar: %w", err)
	}
	return float64(buf[0]) / float64(r.Size()), nil
}

// AllreduceCounts sums an int64 vector across ranks (used to merge
// confusion matrices for global mIOU). Summation rides the float32
// collective, which is exact while every partial sum stays below 2²⁴
// — comfortably true for this package's evaluation-set pixel counts.
func (r *Runtime) AllreduceCounts(counts []int64) error {
	buf := make([]float32, len(counts))
	for i, c := range counts {
		buf[i] = float32(c)
	}
	if err := collective.AllreduceRing(r.Comm, r.world, buf); err != nil {
		return fmt.Errorf("horovod: allreduce counts: %w", err)
	}
	for i := range counts {
		counts[i] = int64(buf[i] + 0.5)
	}
	return nil
}
