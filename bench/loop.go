package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"segscale/internal/checkpoint"
	"segscale/internal/deeplab"
	"segscale/internal/horovod"
	"segscale/internal/metrics"
	"segscale/internal/nn"
	"segscale/internal/segdata"
	"segscale/internal/tensor"
	"segscale/internal/topology"
	"segscale/internal/train"
	"segscale/internal/transport"
)

// loopResult is what the benchmark's own traced step loop measured.
type loopResult struct {
	traces    []*rankTrace
	rankSteps int
	ws        []tensor.WorkspaceStats // per rank, after the last step
	allocs    float64                 // heap allocations per rank-step over the last epoch
	ckptBytes int64
	problem   string
}

// tracedLoop trains cfg's model for epochs epochs with a per-rank step
// loop built only from the program's public calls, recording a span
// around each. It has no chaos plan and no loss scaler: train's loss
// scaling and elastic replica sync are unexported, so the time they
// take shows as train.unattributed_ms instead.
func tracedLoop(cfg train.Config, epochs int, ckptPath string) loopResult {
	var out loopResult
	size := cfg.Model.InputSize
	trainSet := segdata.New(cfg.TrainSize, size, size, cfg.Seed)
	evalSet := segdata.New(cfg.EvalSize, size, size, cfg.Seed+1_000_000)
	mach := topology.ExactFor(cfg.World)
	hcfg := cfg.Horovod
	if cfg.MixedPrecision {
		hcfg.FP16Compression = true
	}
	steps := stepsPerEpoch(cfg, cfg.World)
	out.rankSteps = cfg.World * steps * epochs

	w, err := transport.NewWorld(cfg.World)
	if err != nil {
		out.problem = err.Error()
		return out
	}
	t0 := time.Now()
	out.traces = make([]*rankTrace, cfg.World)
	out.ws = make([]tensor.WorkspaceStats, cfg.World)
	var m0, m1 runtime.MemStats
	err = w.Run(func(c *transport.Comm) error {
		rank := c.Rank()
		net := deeplab.New(cfg.Model)
		ws := tensor.NewWorkspace()
		net.SetWorkspace(ws)
		params := net.Params()
		bns := net.BatchNorms()
		tr := newRankTrace(rank, t0, epochs*steps*(8+2*len(bns))+16*epochs+16)
		out.traces[rank] = tr
		rt, err := horovod.NewRuntime(c, mach, hcfg)
		if err != nil {
			return err
		}
		opt := nn.NewSGD(cfg.BaseLR)
		sp := tr.begin("horovod.broadcast")
		err = rt.BroadcastParams(params)
		tr.end(sp)
		if err != nil {
			return err
		}
		if cfg.SyncBN && cfg.World > 1 {
			for _, bn := range bns {
				bn.Sync = func(buf []float64) {
					sp := tr.begin("horovod.syncbn")
					rt.RecordCommErr(rt.AllreduceSumFloat64(buf))
					tr.end(sp)
				}
			}
		}

		shard := segdata.ShardIDs(cfg.TrainSize, cfg.World, rank)
		x := tensor.New(cfg.BatchPerRank, 3, size, size)
		labels := make([]int32, cfg.BatchPerRank*size*size)
		ids := make([]int, 0, cfg.BatchPerRank)
		gstep := 0
		for epoch := 0; epoch < epochs; epoch++ {
			last := epoch == epochs-1
			if last {
				// Heap allocations are counted over the last epoch's
				// steps, once every arena and buffer is warm.
				if err := memBarrier(c, &m0); err != nil {
					return err
				}
			}
			perm := rand.New(rand.NewSource(cfg.Seed + int64(epoch)*101 + int64(rank))).Perm(len(shard))
			rng := rand.New(rand.NewSource(cfg.Seed*31 + int64(rank) + int64(epoch)*1_000_003))
			for s := 0; s < steps; s++ {
				tr.step = gstep
				step := tr.begin("step")
				ws.Reset()
				net.ReseedDropout(int64(gstep))

				sp := tr.begin("segdata.batch")
				ids = ids[:0]
				for k := 0; k < cfg.BatchPerRank; k++ {
					ids = append(ids, shard[perm[(s*cfg.BatchPerRank+k)%len(shard)]])
				}
				trainSet.BatchInto(ids, x, labels)
				if cfg.Augment {
					segdata.RandomScaleCrop(rng, x, labels, 0.75, 1.25)
					if rng.Intn(2) == 1 {
						segdata.FlipHoriz(x, labels)
					}
				}
				tr.end(sp)

				sp = tr.begin("deeplab.forward")
				logits := net.Forward(x, true)
				tr.end(sp)
				if err := rt.CommErr(); err != nil {
					return err
				}
				sp = tr.begin("tensor.loss")
				loss, dlogits := tensor.SoftmaxCrossEntropyWS(logits, labels, segdata.IgnoreLabel, ws)
				tr.end(sp)
				if math.IsNaN(loss) || math.IsInf(loss, 0) {
					return fmt.Errorf("rank %d step %d: loss %v", rank, gstep, loss)
				}
				sp = tr.begin("deeplab.backward")
				net.Backward(dlogits)
				tr.end(sp)
				if err := rt.CommErr(); err != nil {
					return err
				}
				sp = tr.begin("horovod.allreduce_grads")
				err := rt.AllreduceGrads(params)
				tr.end(sp)
				if err != nil {
					return err
				}
				sp = tr.begin("nn.opt_step")
				opt.Step(params)
				nn.ZeroGrads(params)
				tr.end(sp)
				tr.end(step)
				gstep++
			}
			if last {
				if err := memBarrier(c, &m1); err != nil {
					return err
				}
			}

			sp = tr.begin("train.eval")
			conf := evaluate(net, evalSet, cfg.World, rank, ws)
			err := rt.AllreduceCounts(conf.M)
			tr.end(sp)
			if err != nil {
				return err
			}
			if rank == 0 {
				sp = tr.begin("checkpoint.save")
				err := checkpoint.SaveStateFile(ckptPath, checkpoint.State{
					Params: params, BNs: bns, Velocity: opt.ExportState(params),
					Meta: &checkpoint.Meta{Epoch: epoch, Step: gstep},
				})
				tr.end(sp)
				if err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		// Every rank restores the last checkpoint, as a restart does.
		sp = tr.begin("checkpoint.load")
		st := checkpoint.State{Params: params, BNs: bns}
		err = checkpoint.LoadStateFile(ckptPath, &st)
		tr.end(sp)
		if err != nil {
			return err
		}
		if st.Meta == nil || st.Meta.Epoch != epochs-1 {
			return fmt.Errorf("rank %d restored %+v, want the epoch-%d snapshot", rank, st.Meta, epochs-1)
		}
		out.ws[rank] = ws.Stats()
		return nil
	})
	if err != nil {
		out.problem = fmt.Sprintf("traced loop: %v", err)
		return out
	}
	out.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(cfg.World*steps)
	if fi, err := os.Stat(ckptPath); err == nil {
		out.ckptBytes = fi.Size()
	} else {
		out.problem = fmt.Sprintf("traced loop: %v", err)
	}
	return out
}

// memBarrier lines every rank up, has rank 0 read the heap counters
// into m, and lines them up again, so m is read while no rank runs.
func memBarrier(c *transport.Comm, m *runtime.MemStats) error {
	if err := c.Barrier(); err != nil {
		return err
	}
	if c.Rank() == 0 {
		runtime.ReadMemStats(m)
	}
	return c.Barrier()
}

// evaluate is the per-epoch evaluation the trainer runs: this rank's
// slice of the eval set through PredictInto, four images at a time,
// merged into a confusion matrix.
func evaluate(net *deeplab.Model, evalSet *segdata.Dataset, world, rank int, ws *tensor.Workspace) *metrics.Confusion {
	conf := metrics.NewConfusion(segdata.NumClasses)
	ids := segdata.ShardIDs(evalSet.Len(), world, rank)
	const evalBatch = 4
	hw := evalSet.H * evalSet.W
	labels := make([]int32, evalBatch*hw)
	pred := make([]int32, evalBatch*hw)
	for lo := 0; lo < len(ids); lo += evalBatch {
		n := min(lo+evalBatch, len(ids)) - lo
		ws.Reset()
		x := ws.GetRaw(n, 3, evalSet.H, evalSet.W)
		evalSet.BatchInto(ids[lo:lo+n], x, labels[:n*hw])
		conf.Update(labels[:n*hw], net.PredictInto(x, pred[:n*hw]), segdata.IgnoreLabel)
	}
	ws.Reset()
	return conf
}
