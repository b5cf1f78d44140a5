package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"segscale/internal/deeplab"
	"segscale/internal/faultinject"
	"segscale/internal/horovod"
	"segscale/internal/netmodel"
	"segscale/internal/segdata"
	"segscale/internal/train"
)

// trainerSpec is a generated trainer workload: the config train.Run
// receives and the fault transitions its chaos plan must cause.
type trainerSpec struct {
	cfg                        train.Config
	restarts, shrinks, regrows int
}

// dlv3Config is train-dlv3-w2, the compute-bound trainer: two ranks of
// the default DeepLab with one fused fp32 ring allreduce per step, and
// a crash at step 100 that checkpoint-restart must mask.
func dlv3Config(seed int64, dir string) trainerSpec {
	cfg := train.DefaultConfig()
	cfg.World = 2
	cfg.Model = deeplab.DefaultConfig()
	cfg.Model.Seed = seed
	cfg.BatchPerRank = 4
	cfg.TrainSize, cfg.EvalSize, cfg.Epochs = 192, 32, 8
	cfg.Horovod = horovod.Default()
	cfg.SyncBN = true
	cfg.CheckpointPath = filepath.Join(dir, "dlv3.segc")
	cfg.MaxRestarts = 1
	cfg.Chaos = &faultinject.Plan{Crashes: []faultinject.Crash{{Rank: 1, Step: 100}}}
	cfg.Seed = seed
	return trainerSpec{cfg: cfg, restarts: 1}
}

// hierConfig is train-hier-w12-fp16, the comm-bound trainer: twelve
// ranks on two six-GPU nodes with a tiny model, one binary16
// two-level allreduce per tensor, and an elastic shrink at step 100
// followed by a scheduled regrow at epoch 12.
func hierConfig(seed int64, dir string) trainerSpec {
	cfg := train.DefaultConfig()
	cfg.World = 12
	cfg.Model = deeplab.DefaultConfig()
	cfg.Model.InputSize, cfg.Model.Width, cfg.Model.DeepBlocks = 8, 4, 1
	cfg.Model.Seed = seed
	cfg.BatchPerRank = 1
	cfg.TrainSize, cfg.EvalSize, cfg.Epochs = 240, 32, 24
	cfg.MixedPrecision = true
	cfg.Horovod = horovod.Default()
	cfg.Horovod.FusionThreshold = 0
	cfg.Horovod.Algorithm = netmodel.AlgHierTwoLevel
	cfg.SyncBN = true
	cfg.Elastic = true
	cfg.RejoinEpoch = 12
	cfg.MaxRestarts = 1
	cfg.Chaos = &faultinject.Plan{Crashes: []faultinject.Crash{{Rank: 5, Step: 100}}}
	cfg.Seed = seed
	return trainerSpec{cfg: cfg, restarts: 2, shrinks: 1, regrows: 1}
}

// setupProbe returns cfg with its chaos plan replaced by a crash of
// rank 0 at step 2 and no recovery budget: train.Run then does all of
// its set-up and first step, and returns the planned crash soon after.
// Every rank has finished step 0 by then, since rank 0's step-1
// allreduce needs every rank's step-1 gradients.
func setupProbe(cfg train.Config) train.Config {
	cfg.Chaos = &faultinject.Plan{Crashes: []faultinject.Crash{{Rank: 0, Step: 2}}}
	cfg.MaxRestarts = 0
	cfg.CheckpointPath = cfg.CheckpointPath + ".probe"
	return cfg
}

// stepClock is the benchmark's Config.StepObs: it stamps the arrival
// of every completed step on every rank lane with the wall clock.
type stepClock struct {
	t0     time.Time
	mu     sync.Mutex
	lanes  map[string][]stamp
	worlds []time.Duration // start of each incarnation, stamped through Config.OnWorld
}

type stamp struct {
	step int
	at   time.Duration
}

// newStepClock makes a clock with every rank lane of cfg allocated up
// front, with room for twice the run's steps: observing a step then
// allocates nothing, so the observer adds no garbage to the steps it
// times.
func newStepClock(cfg train.Config) *stepClock {
	s := &stepClock{t0: time.Now(), lanes: map[string][]stamp{}}
	steps := 2 * cfg.Epochs * stepsPerEpoch(cfg, cfg.World)
	for r := 0; r < cfg.World; r++ {
		s.lanes[fmt.Sprintf("rank%d", r)] = make([]stamp, 0, steps)
	}
	return s
}

func (s *stepClock) ObserveStep(lane string, step, _ int, _ float64) {
	at := time.Since(s.t0) //seglint:ignore hotalloc time.Since reads the monotonic clock and does not allocate
	s.mu.Lock()
	s.lanes[lane] = append(s.lanes[lane], stamp{step, at}) //seglint:ignore hotalloc lanes are preallocated with room for twice the run's steps
	s.mu.Unlock()
}

// ranks returns how many rank lanes observed at least one step.
func (s *stepClock) ranks() int {
	n := 0
	for _, st := range s.lanes {
		if len(st) > 0 {
			n++
		}
	}
	return n
}

// newWorld stamps the start of an incarnation of the world.
func (s *stepClock) newWorld() {
	at := time.Since(s.t0)
	s.mu.Lock()
	s.worlds = append(s.worlds, at)
	s.mu.Unlock()
}

// recovery returns the stall around the first failure: from the last
// step any rank finished before the second incarnation started to the
// last rank's first step in it. It also counts the rank-steps run more
// than once. Both are zero for a run that never failed.
func (s *stepClock) recovery() (stall time.Duration, replayed int) {
	for _, st := range s.lanes {
		seen := -1
		for _, x := range st {
			if x.step <= seen {
				replayed++
			}
			seen = max(seen, x.step)
		}
	}
	if len(s.worlds) < 2 {
		return 0, replayed
	}
	from, until := s.worlds[1], time.Duration(math.MaxInt64)
	if len(s.worlds) > 2 {
		until = s.worlds[2]
	}
	var before, after time.Duration
	for _, st := range s.lanes {
		for _, x := range st {
			if x.at < from {
				before = max(before, x.at)
			} else if x.at < until {
				after = max(after, x.at)
				break
			}
		}
	}
	return after - before, replayed
}

// setup is the time from the start of train.Run until the last rank
// finished its first step.
func (s *stepClock) setup() time.Duration {
	var last time.Duration
	for _, st := range s.lanes {
		if len(st) > 0 && st[0].at > last {
			last = st[0].at
		}
	}
	return last
}

// intervals returns the step-to-step intervals of every lane, in
// milliseconds, leaving out every interval that does not join two
// consecutive steps of one epoch: those span an evaluation, a
// checkpoint, a barrier or a recovery.
func (s *stepClock) intervals(epochStart map[int]bool) []float64 {
	var out []float64
	for _, st := range s.lanes {
		for i := 1; i < len(st); i++ {
			if st[i].step != st[i-1].step+1 || epochStart[st[i].step] {
				continue
			}
			out = append(out, float64(st[i].at-st[i-1].at)/float64(time.Millisecond))
		}
	}
	return out
}

// epochStarts returns the global step each epoch of a finished run
// started at. An elastic run re-shards when its world changes, so the
// steps per epoch follow the world each epoch trained with.
func epochStarts(res *train.Result) map[int]bool {
	starts := map[int]bool{}
	g := 0
	for _, ep := range res.History {
		starts[g] = true
		g += stepsPerEpoch(res.Config, ep.World)
	}
	return starts
}

func stepsPerEpoch(cfg train.Config, world int) int {
	return (len(segdata.ShardIDs(cfg.TrainSize, world, 0)) + cfg.BatchPerRank - 1) / cfg.BatchPerRank
}

// historyDigest digests the per-epoch (loss, mIOU, pixel accuracy,
// world) history bit-exactly.
func historyDigest(res *train.Result) string {
	d := newDigest()
	for _, ep := range res.History {
		d.int(ep.Epoch)
		d.float(ep.Loss)
		d.float(ep.MIOU)
		d.float(ep.PixelAcc)
		d.int(ep.World)
	}
	return d.sum()
}

// trainRun is one timed train.Run.
type trainRun struct {
	res    *train.Result
	err    error
	wall   time.Duration
	clock  *stepClock
	digest string
}

func runTrain(cfg train.Config) trainRun { return runTrainWith(cfg, newStepClock(cfg)) }

// runTrainWith is runTrain with a caller-made clock, so Config.OnWorld
// can stamp incarnations on it.
func runTrainWith(cfg train.Config, clock *stepClock) trainRun {
	cfg.StepObs = clock
	clock.t0 = time.Now()
	res, err := train.Run(cfg)
	r := trainRun{res: res, err: err, wall: time.Since(clock.t0), clock: clock}
	if err == nil {
		r.digest = historyDigest(res)
	}
	return r
}

// checkRun returns why a full run's output is wrong, or "": it must
// finish, cause exactly the planned fault transitions, produce a
// finite history over every epoch, stamp every rank, and match the
// digest expected for the seed.
func checkRun(spec trainerSpec, r trainRun, want string) string {
	cfg := spec.cfg
	if r.err != nil {
		return fmt.Sprintf("train.Run: %v", r.err)
	}
	res := r.res
	if res.Restarts != spec.restarts || res.Shrinks != spec.shrinks || res.Regrows != spec.regrows {
		return fmt.Sprintf("planned faults did not run: restarts=%d shrinks=%d regrows=%d, want %d/%d/%d",
			res.Restarts, res.Shrinks, res.Regrows, spec.restarts, spec.shrinks, spec.regrows)
	}
	if len(res.History) != cfg.Epochs {
		return fmt.Sprintf("history has %d epochs, want %d", len(res.History), cfg.Epochs)
	}
	for _, ep := range res.History {
		if math.IsNaN(ep.Loss) || math.IsInf(ep.Loss, 0) || ep.MIOU < 0 || ep.MIOU > 1 || ep.World < 1 || ep.World > cfg.World {
			return fmt.Sprintf("epoch %d out of range: %+v", ep.Epoch, ep)
		}
	}
	if n := r.clock.ranks(); n != cfg.World {
		return fmt.Sprintf("%d rank lanes reported steps, want %d", n, cfg.World)
	}
	if want != "" && r.digest != want {
		return fmt.Sprintf("history digest %s, want %s", r.digest, want)
	}
	return ""
}

// setupProbes is how many set-up-only runs a measured trainer run
// makes before its full runs, so set-up time is a median of several.
const setupProbes = 5

// measureTrainer returns the measured runs of a trainer workload:
// set-up probes, then full train.Run calls with telemetry, health and
// observability off, while another one fits in the time budget.
func measureTrainer(gen func(int64, string) trainerSpec) func(*env, *report) error {
	return func(e *env, r *report) error {
		spec := gen(e.seed, e.tmp)
		start := time.Now()
		var setups []float64
		for i := 0; i < setupProbes; i++ {
			p := runTrain(setupProbe(spec.cfg))
			problem := ""
			switch {
			case p.err == nil:
				problem = "set-up probe: the planned crash did not stop train.Run"
			case !errors.Is(p.err, faultinject.ErrCrashed):
				problem = fmt.Sprintf("set-up probe: %v", p.err)
			case p.clock.ranks() != spec.cfg.World:
				problem = fmt.Sprintf("set-up probe: %d of %d ranks finished a step", p.clock.ranks(), spec.cfg.World)
			default:
				setups = append(setups, p.clock.setup().Seconds())
			}
			r.op(problem)
		}

		want := e.recorded()
		first := ""
		var goodputs, p50s, p95s, steals []float64
		var samples []int
		for {
			cpu := readCPUTimes()
			run := runTrain(spec.cfg)
			if first == "" {
				first = run.digest
			}
			if want == "" && run.err == nil {
				// No digest is recorded for this seed: the first run's
				// becomes the one every later run must repeat.
				want = run.digest
			}
			steal := readCPUTimes().stealSince(cpu)
			problem := checkRun(spec, run, want)
			r.op(problem)
			if problem == "" {
				setups = append(setups, run.clock.setup().Seconds())
				iv := run.clock.intervals(epochStarts(run.res))
				p50s = append(p50s, quantile(iv, 0.50))
				p95s = append(p95s, quantile(iv, 0.95))
				samples = append(samples, len(iv))
				goodputs = append(goodputs, float64(spec.cfg.Epochs*spec.cfg.TrainSize)/run.wall.Seconds())
				steals = append(steals, steal)
			}
			fmt.Printf("# run %d: wall=%.3fs steal=%.1f%% digest=%s\n",
				r.attempted-setupProbes, run.wall.Seconds(), steal, run.digest)
			if time.Since(start)+run.wall > time.Duration(e.seconds*float64(time.Second)) {
				break
			}
		}
		fmt.Printf("# digest: %s (recorded: %s)\n", first, orNone(e.recorded()))

		use := quietest(steals)
		n := 0
		for _, i := range use {
			n += samples[i]
		}
		used := fmt.Sprintf("median over the %d of %d good runs with the least steal", len(use), len(steals))
		r.add("goodput_per_s", median(pick(goodputs, use)), "1/s", len(use),
			"train_img_per_s: Epochs*TrainSize over train.Run wall, eval/checkpoint/recovery included; "+used)
		note := "each run's quantile of the intervals between consecutive steps of one epoch on every rank lane; " + used
		r.add("step_p50_ms", median(pick(p50s, use)), "ms", n, note)
		r.add("step_p95_ms", median(pick(p95s, use)), "ms", n, note)
		r.add("setup_s", median(setups), "s", len(setups), "train.Run call to the last rank's first step, median")
		return nil
	}
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
