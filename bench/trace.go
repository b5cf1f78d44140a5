package main

import (
	"fmt"
	"path/filepath"
	"time"

	"segscale/internal/faultinject"
	"segscale/internal/netmodel"
	"segscale/internal/telemetry"
	"segscale/internal/transport"
)

// The traced pass runs apart from the measured runs and reports every
// per-layer metric. A layer the workload's measured runs leave idle is
// still measured, by a probe at a stated configuration, and its header
// line says so.

// traceTrainer is a trainer workload's traced pass: its trainer layers
// at its own config, then the simulator layers over its own algorithm
// and wire precision.
func traceTrainer(gen func(int64, string) trainerSpec) func(*env, *report) error {
	return func(e *env, r *report) error {
		spec := gen(e.seed, e.tmp)
		if err := trainerLayers(e, r, spec, e.recorded(), traceEpochs, true); err != nil {
			return err
		}
		h := spec.cfg.Horovod
		grid := simGrid{algs: []netmodel.Algorithm{h.ResolveAlgorithm()}, fp16: []bool{wireFP16(spec.cfg)}}
		return probe(r, "simulator idle in this workload; swept at its own algorithm and wire", func() error {
			_, err := simLayers(e, r, grid)
			return err
		})
	}
}

// traceSim is sim-sweep's traced pass: the simulator layers over the
// full grid, then the trainer layers at the reduced comm-bound config
// of simProbeConfig.
func traceSim(e *env, r *report) error {
	ratio, err := simLayers(e, r, fullGrid)
	if err != nil {
		return err
	}
	r.add("trace_overhead_ratio", ratio, "ratio", 0, "traced sweep pass wall over untraced")
	return probe(r, "trainer idle in this workload; measured at the reduced comm-bound config", func() error {
		return trainerLayers(e, r, simProbeConfig(e.seed, e.tmp), "", 1, false)
	})
}

// simProbeConfig is train-hier-w12-fp16 cut to six epochs, with the
// crash at the top of epoch 2 and the regrow at epoch 3.
func simProbeConfig(seed int64, dir string) trainerSpec {
	spec := hierConfig(seed, dir)
	spec.cfg.Epochs = 6
	spec.cfg.RejoinEpoch = 3
	spec.cfg.Chaos = &faultinject.Plan{Crashes: []faultinject.Crash{{Rank: 5, Step: 40}}}
	return spec
}

// probe runs fn and marks every metric it adds as measured by a probe.
func probe(r *report, why string, fn func() error) error {
	from := len(r.metrics)
	err := fn()
	for i := from; i < len(r.metrics); i++ {
		r.metrics[i].note = "probe (" + why + "); " + r.metrics[i].note
	}
	return err
}

// traceEpochs is how many epochs the benchmark's own traced step loop
// trains a trainer workload's config for. Per-step layer times leave
// out the first, while arenas and buffers warm up.
const traceEpochs = 3

// trainerLayers measures the trainer's layers for spec: an untraced
// train.Run (for step time and the recovery), the same run with a
// telemetry collector (for the program's own counters and the tracing
// overhead), the benchmark's traced step loop, and the kernel,
// collective and fp16 passes. want is the history digest expected for
// spec, or "" to take the untraced run's.
func trainerLayers(e *env, r *report, spec trainerSpec, want string, loopEpochs int, overhead bool) error {
	cfg := spec.cfg

	clock := newStepClock(cfg)
	plain := cfg
	plain.OnWorld = func(*transport.World, int) { clock.newWorld() }
	untraced := runTrainWith(plain, clock)
	if want == "" {
		want = untraced.digest
	}
	r.op(checkRun(spec, untraced, want))

	col := telemetry.NewCollector()
	traced := cfg
	traced.Telemetry = col
	tracedRun := runTrain(traced)
	problem := checkRun(spec, tracedRun, want)
	if problem != "" {
		problem = "with telemetry: " + problem
	}
	r.op(problem)
	if untraced.err != nil || tracedRun.err != nil {
		return nil
	}

	counter := map[string]float64{}
	for _, m := range col.Gather() {
		counter[m.Name] = m.Value
	}
	steps := counter["train_steps_total"]
	if overhead {
		r.add("trace_overhead_ratio", tracedRun.wall.Seconds()/untraced.wall.Seconds(), "ratio", 0,
			"train.Run wall with a telemetry collector over without")
	}
	r.add("transport.sends_per_step", counter["transport_sends_total"]/steps, "count", int(steps),
		"telemetry counter over rank-steps; eval, broadcast and SyncBN traffic included")
	r.add("transport.sent_bytes_per_step", counter["transport_sent_bytes"]/steps, "B", int(steps), "same")
	r.add("transport.retries_total", counter["retries_total"], "count", 0, "telemetry counter")
	r.add("horovod.fused_buffers_per_step", counter["horovod_fused_buffers_total"]/steps, "count", int(steps), "telemetry counter over rank-steps")
	r.add("horovod.fused_bytes_per_step", counter["horovod_fused_bytes"]/steps, "B", int(steps), "same")

	stall, replayed := clock.recovery()
	r.add("train.recovery_s", stall.Seconds(), "s", 0, "last step before the crash to the last rank's first step after")
	r.add("train.replayed_steps", float64(replayed), "count", 0, "rank-steps run again after the recovery")

	loop := tracedLoop(cfg, loopEpochs, filepath.Join(e.tmp, "traced.segc"))
	r.op(loop.problem)
	if loop.problem != "" {
		return nil
	}
	path, err := writeSpans(fmt.Sprintf("%s-seed%d-trainer.jsonl", e.workload, e.seed), loop.traces)
	if err != nil {
		return err
	}
	fmt.Printf("# spans: %s\n", path)
	all := selfTimes(loop.traces, 0)
	warm := stepsPerEpoch(cfg, cfg.World)
	if loopEpochs == 1 {
		warm = 0
	}
	lt := selfTimes(loop.traces, warm)
	rs := loop.rankSteps - cfg.World*warm
	note := fmt.Sprintf("self time per rank-step, traced loop, %d ranks, steps %d-%d", cfg.World, warm, loop.rankSteps/cfg.World-1)
	stepLayers := []struct{ metric, span string }{
		{"segdata.batch_ms", "segdata.batch"},
		{"deeplab.forward_ms", "deeplab.forward"},
		{"deeplab.backward_ms", "deeplab.backward"},
		{"tensor.loss_ms", "tensor.loss"},
		{"horovod.syncbn_ms", "horovod.syncbn"},
		{"horovod.allreduce_grads_ms", "horovod.allreduce_grads"},
		{"nn.opt_step_ms", "nn.opt_step"},
	}
	attributed := 0.0
	for _, l := range stepLayers {
		v := perStepMs(lt, l.span, rs)
		attributed += v
		r.add(l.metric, v, "ms", rs, note)
	}
	r.add("horovod.allreduce_wait_ms", arrivalSkewMs(loop.traces, "horovod.allreduce_grads", warm), "ms", rs,
		"last rank's AllreduceGrads call minus this rank's, mean over rank-steps")
	r.add("train.eval_ms", perCallMs(all, "train.eval"), "ms", all["train.eval"].count, "per rank-epoch: PredictInto loop and count merge")
	r.add("checkpoint.save_ms", perCallMs(all, "checkpoint.save"), "ms", all["checkpoint.save"].count, "SaveStateFile, rank 0 per epoch")
	r.add("checkpoint.load_ms", perCallMs(all, "checkpoint.load"), "ms", all["checkpoint.load"].count, "LoadStateFile, every rank")
	r.add("checkpoint.bytes", float64(loop.ckptBytes), "B", 0, "full training state file")

	intervals := clock.intervals(epochStarts(untraced.res))
	r.add("train.unattributed_ms", mean(intervals)-attributed, "ms", len(intervals),
		"train.Run mean step interval minus the traced loop's timed calls")

	var gets, hits uint64
	pooled := 0.0
	for rank, s := range loop.ws {
		fmt.Printf("# workspace rank%d: %v\n", rank, s)
		gets += s.Gets
		hits += s.Hits
		pooled = max(pooled, float64(s.PooledBytes)/(1<<20))
	}
	r.add("tensor.allocs_per_step", loop.allocs, "count", cfg.World, "runtime.MemStats mallocs per rank-step over the last traced epoch")
	r.add("tensor.ws_pooled_mb", pooled, "MB", cfg.World, "largest per-rank Workspace.Stats PooledBytes")
	r.add("tensor.ws_hit_ratio", float64(hits)/float64(gets), "ratio", int(gets), "Workspace.Stats hits over gets, all ranks")

	if err := kernelPass(cfg, r); err != nil {
		return err
	}
	return collectivePass(cfg, r)
}

// arrivalSkewMs is the mean, over every rank-step from step from on,
// of how long after this rank the last rank entered the named span.
func arrivalSkewMs(traces []*rankTrace, name string, from int) float64 {
	last := map[int]time.Duration{}
	for _, t := range traces {
		for _, s := range t.spans {
			if s.name == name && s.step >= from && s.start > last[s.step] {
				last[s.step] = s.start
			}
		}
	}
	var sum time.Duration
	n := 0
	for _, t := range traces {
		for _, s := range t.spans {
			if s.name == name && s.step >= from {
				sum += last[s.step] - s.start
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(time.Millisecond) / float64(n)
}

// simLayers measures the simulator's layers: one untraced sweep pass
// and one with a span around every call, which must agree. It returns
// the traced pass's wall time over the untraced one's.
func simLayers(e *env, r *report, grid simGrid) (float64, error) {
	s := simSeed(e.seed, 0)
	plain, err := sweep(grid, s, nil)
	r.op(errProblem("untraced sweep", err))
	if err != nil {
		return 0, nil
	}
	tr := newRankTrace(0, time.Now(), 1024)
	traced, err := sweep(grid, s, tr)
	problem := errProblem("traced sweep", err)
	if err == nil && traced.digest != plain.digest {
		problem = fmt.Sprintf("traced sweep digest %s, untraced %s", traced.digest, plain.digest)
	}
	r.op(problem)
	if err != nil {
		return 0, nil
	}
	path, err := writeSpans(fmt.Sprintf("%s-seed%d-sim.jsonl", e.workload, e.seed), []*rankTrace{tr})
	if err != nil {
		return 0, err
	}
	fmt.Printf("# spans: %s\n", path)
	lt := selfTimes([]*rankTrace{tr}, 0)
	for _, g := range []int{6, 132, 1056} {
		name := fmt.Sprintf("perfsim.run.g%d", g)
		r.add(fmt.Sprintf("perfsim.run_ms.g%d", g), perCallMs(lt, name), "ms", lt[name].count, "mean per perfsim.Run")
	}
	runs := traced.perfsimRuns
	r.add("perfsim.allocs_per_run", float64(traced.perfsimAllocs)/float64(runs), "count", runs,
		"runtime.MemStats mallocs inside perfsim.Run, mean per run")
	r.add("netsim.ring_ms", perCallMs(lt, "netsim.ring"), "ms", lt["netsim.ring"].count, "mean per RingAllreduce DES")
	r.add("netsim.hier_ms", perCallMs(lt, "netsim.hier"), "ms", lt["netsim.hier"].count, "mean per HierLeaderAllreduce DES")
	r.add("netmodel.cost_us", 1000*perCallMs(lt, "netmodel.cost"), "us", lt["netmodel.cost"].count, "mean per closed-form call")
	r.add("core.staged_tune_ms", perCallMs(lt, "core.staged_tune"), "ms", 1, fmt.Sprintf("StagedTune at %d GPUs", tuneGPUs))
	return traced.wall.Seconds() / plain.wall.Seconds(), nil
}

func errProblem(what string, err error) string {
	if err == nil {
		return ""
	}
	return fmt.Sprintf("%s: %v", what, err)
}
