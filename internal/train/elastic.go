package train

import (
	"errors"
	"fmt"

	"segscale/internal/horovod"
	"segscale/internal/nn"
	"segscale/internal/timeline"
)

// Elastic training: instead of rolling the whole world back to a
// checkpoint when a rank dies, the survivors re-form a smaller world
// in place and keep going. This is the replicaRollback recovery policy
// of the one training driver in train.go: replicas live in runState
// across world transitions — the weights carry whatever progress the
// interrupted epoch made — and the interrupted epoch restarts on the
// shrunken world with shards, shuffles, and augmentation streams
// re-keyed by the new (comm rank, world size). Determinism rests on
// the collectives being globally synchronizing: after a kill, every
// survivor fails inside the same global step before any state
// divergence can be observed (failed collectives never write back,
// the optimiser only steps after a successful allreduce), so the
// survivor set leaves the incarnation bit-identical across reruns of
// the same seed. Dirty gradients and per-rank batch-norm drift from
// the torn step are erased at resume: gradients are zeroed and
// parameters, batch-norm statistics, and optimiser velocity are
// broadcast bit-exactly from the lowest surviving slot.

// errRejoin is the in-band signal every rank returns, in lockstep, at
// the top of cfg.RejoinEpoch when the world is short-handed: the
// policy regrows the membership and the driver starts a new
// incarnation there.
var errRejoin = errors.New("train: scheduled rejoin")

// replicaRollback shrinks the membership around a failed rank and
// rolls the survivors back to their last in-memory commit; a
// scheduled rejoin regrows it.
type replicaRollback struct{}

// prepare rolls every surviving replica back to its last committed
// epoch boundary: the torn step died at a scheduling-dependent point,
// and only the committed state is reproducible across reruns. The sync
// root is the lowest comm rank whose replica predates this incarnation
// — a survivor carrying real state — and fresh replicas take its
// global step; after rollback, every survivor holds the same value.
// On the very first incarnation every slot is fresh and root 0 is
// fine: the broadcast just makes the freshly initialized replicas
// identical in value.
func (replicaRollback) prepare(rs *runState, members []int, _ int) (root, gstep int) {
	root = -1
	for i, s := range members {
		if rep := rs.replicas[s]; rep != nil {
			rep.rollback()
			if root < 0 {
				root, gstep = i, rep.gstep
			}
		}
	}
	return max(root, 0), gstep
}

// sync starts every incarnation by making all replicas bit-identical
// to the sync root's — parameters, float64 batch-norm statistics,
// optimiser velocity — and by zeroing gradients (the torn step may
// have left them partially averaged). Uniform across incarnations, so
// the wire schedule never depends on why the world was rebuilt. The
// synced state is then committed as the rollback target should this
// incarnation die before its first epoch boundary.
func (replicaRollback) sync(_ *runState, rep *replica, rt *horovod.Runtime, root, _ int) error {
	nn.ZeroGrads(rep.params)
	if err := rt.BroadcastParamsFrom(root, rep.params); err != nil {
		return err
	}
	for _, bn := range rep.net.BatchNorms() {
		if err := rt.BroadcastFloat64ExactFrom(root, bn.RunningMean); err != nil {
			return err
		}
		if err := rt.BroadcastFloat64ExactFrom(root, bn.RunningVar); err != nil {
			return err
		}
	}
	vel := rep.opt.ExportState(rep.params)
	for _, v := range vel {
		if err := rt.BroadcastFrom(root, v); err != nil {
			return err
		}
	}
	if err := rep.opt.ImportState(rep.params, vel); err != nil {
		return err
	}
	rep.commit()
	return nil
}

func (replicaRollback) commit(rep *replica) { rep.commit() }

// recover regrows the membership on a scheduled rejoin, free of the
// restart budget. A recoverable failure instead shrinks it around the
// failed slots, consuming the budget; anything else propagates. Dropped
// and revived slots lose their replicas: a revived slot's old replica
// is stale (frozen at its death point), so it is rebuilt fresh and the
// next incarnation's state sync brings it up to date.
func (replicaRollback) recover(rs *runState, _ int, err error, failed []int) (int, error) {
	if errors.Is(err, errRejoin) {
		revived := rs.members.RestoreAll()
		for _, s := range revived {
			rs.replicas[s] = nil
		}
		rs.regrows++
		rs.probe.Counter("elastic_regrows_total").Inc()
		rs.probe.Mark(timeline.PhaseRecovery, fmt.Sprintf("regrow%d: +%d slot(s)", rs.regrows, len(revived)))
		return rs.doneEpoch + 1, nil
	}
	if !recoverable(err) || rs.shrinks >= rs.cfg.MaxRestarts {
		return 0, err
	}
	if len(failed) == 0 || len(failed) >= rs.members.Size() {
		// Nothing to shrink around (an unattributable delivery
		// failure, or no survivors) — elastic recovery cannot help.
		return 0, err
	}
	if rmErr := rs.members.Remove(failed...); rmErr != nil {
		return 0, errors.Join(err, rmErr)
	}
	for _, s := range failed {
		rs.replicas[s] = nil
	}
	rs.shrinks++
	rs.probe.Counter("elastic_shrinks_total").Inc()
	rs.probe.Mark(timeline.PhaseRecovery, fmt.Sprintf("shrink%d: -%v → %d rank(s): %v",
		rs.shrinks, failed, rs.members.Size(), err))
	return rs.doneEpoch + 1, nil
}

// replicaSnap holds one committed copy of everything a training step
// mutates: weights, float64 batch-norm statistics, optimiser
// velocity, and the global step cursor. It is the Horovod elastic
// state.commit(): a rank kill tears the in-flight step at a
// scheduling-dependent point (some survivors may have applied the last
// optimiser update, others not), so live post-crash state is not
// reproducible. Rolling every survivor back to its last commit before
// re-forming the world makes the resume a pure function of (seed,
// crash epoch) again. Purely in memory — nothing is written to or read
// from disk.
type replicaSnap struct {
	params [][]float32
	bnMean [][]float64
	bnVar  [][]float64
	vel    [][]float32
	gstep  int
}

// commit snapshots the replica's live state. Called at every epoch
// boundary (after the barrier) and once after the incarnation's
// state sync, so a rollback target always exists.
func (r *replica) commit() {
	if r.saved == nil {
		r.saved = &replicaSnap{}
	}
	s := r.saved
	s.params = copyF32s(s.params, r.params)
	bns := r.net.BatchNorms()
	if len(s.bnMean) != len(bns) {
		s.bnMean = make([][]float64, len(bns))
		s.bnVar = make([][]float64, len(bns))
	}
	for i, bn := range bns {
		s.bnMean[i] = append(s.bnMean[i][:0], bn.RunningMean...)
		s.bnVar[i] = append(s.bnVar[i][:0], bn.RunningVar...)
	}
	s.vel = r.opt.ExportState(r.params)
	s.gstep = r.gstep
}

// rollback restores the last committed state (a no-op before the
// first commit).
func (r *replica) rollback() {
	s := r.saved
	if s == nil {
		return
	}
	for i, p := range r.params {
		copy(p.W.Data, s.params[i])
	}
	for i, bn := range r.net.BatchNorms() {
		copy(bn.RunningMean, s.bnMean[i])
		copy(bn.RunningVar, s.bnVar[i])
	}
	if err := r.opt.ImportState(r.params, s.vel); err != nil {
		// The snapshot was exported from this very optimiser/parameter
		// pair; a shape mismatch is unreachable.
		panic(fmt.Sprintf("train: elastic rollback: %v", err))
	}
	r.gstep = s.gstep
}

// copyF32s copies each parameter's weights into dst, reusing its
// backing arrays across commits.
func copyF32s(dst [][]float32, params []*nn.Param) [][]float32 {
	if len(dst) != len(params) {
		dst = make([][]float32, len(params))
	}
	for i, p := range params {
		dst[i] = append(dst[i][:0], p.W.Data...)
	}
	return dst
}
