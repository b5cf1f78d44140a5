package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"segscale/internal/core"
	"segscale/internal/horovod"
	"segscale/internal/model"
	"segscale/internal/mpiprofile"
	"segscale/internal/netmodel"
	"segscale/internal/netsim"
	"segscale/internal/perfsim"
	"segscale/internal/topology"
)

// simGrid is the part of the simulator sweep that varies by workload:
// sim-sweep covers every algorithm and both wire precisions; a trainer
// workload's traced pass sweeps only its own.
type simGrid struct {
	algs []netmodel.Algorithm
	fp16 []bool
}

var fullGrid = simGrid{
	algs: []netmodel.Algorithm{netmodel.AlgRing, netmodel.AlgRecursiveDoubling,
		netmodel.AlgRabenseifner, netmodel.AlgHierLeader, netmodel.AlgHierTwoLevel},
	fp16: []bool{false, true},
}

var (
	sweepGPUs = []int{6, 24, 132, 1056}
	desNodes  = []int{1, 4, 22}
	desBytes  = []int{1 << 20, 16 << 20, 64 << 20}
)

// tuneGPUs is the scale core.StagedTune runs at: the paper's 132-GPU
// tuning point.
const tuneGPUs = 132

// sweepResult is one pass over a grid.
type sweepResult struct {
	evals int           // perfsim runs, DES calls and tuner evaluations
	setup time.Duration // from the start of the pass to its first evaluation
	wall  time.Duration
	// largestMs is the wall time of each perfsim.Run at the largest
	// scale, which takes most of a pass.
	largestMs   []float64
	perfsimRuns int
	// perfsimAllocs counts heap allocations inside perfsim.Run calls;
	// only a traced pass reads the counters.
	perfsimAllocs uint64
	digest        string
}

// sweep runs perfsim over grid × sweepGPUs × both MPI profiles, the
// netsim ring and leader-hierarchy DES beside their closed forms over
// desNodes × desBytes, and one staged tune, all with simulator seed
// seed. Every simulated output goes into the digest. tr, when non-nil,
// gets a span around every call.
func sweep(grid simGrid, seed int64, tr *rankTrace) (sweepResult, error) {
	var res sweepResult
	start := time.Now()
	d := newDigest()
	prof := model.DLv3Plus()
	mpis := []*mpiprofile.Profile{mpiprofile.Spectrum(), mpiprofile.MV2GDR()}
	evalDone := func() {
		if res.evals == 0 {
			res.setup = time.Since(start)
		}
		res.evals++
	}

	for _, gpus := range sweepGPUs {
		for _, alg := range grid.algs {
			for _, fp16 := range grid.fp16 {
				for _, mpi := range mpis {
					h := horovod.Default()
					h.Algorithm = alg
					h.FP16Compression = fp16
					var before, after runtime.MemStats
					if tr != nil {
						runtime.ReadMemStats(&before)
					}
					t0 := time.Now()
					sp := tr.begin(fmt.Sprintf("perfsim.run.g%d", gpus))
					out, err := perfsim.Run(perfsim.Config{GPUs: gpus, Model: prof, MPI: mpi, Horovod: h, Seed: seed})
					tr.end(sp)
					if tr != nil {
						runtime.ReadMemStats(&after)
						res.perfsimAllocs += after.Mallocs - before.Mallocs
					}
					if err != nil {
						return res, fmt.Errorf("perfsim %d GPUs %v fp16=%v %s: %w", gpus, alg, fp16, mpi.Name, err)
					}
					res.perfsimRuns++
					if gpus == sweepGPUs[len(sweepGPUs)-1] {
						res.largestMs = append(res.largestMs, float64(time.Since(t0))/float64(time.Millisecond))
					}
					evalDone()
					d.str(fmt.Sprintf("perfsim %d %v %v %s", gpus, alg, fp16, mpi.Name))
					d.float(out.ImgPerSec)
					d.float(out.AvgStepSec)
					d.float(out.ExposedSec)
				}
			}
		}
	}

	mv2 := mpiprofile.MV2GDR()
	for _, nodes := range desNodes {
		mach := topology.Summit(nodes)
		slots := make([]int, mach.Ranks())
		for i := range slots {
			slots[i] = i
		}
		nm, err := netmodel.New(mach, mv2)
		if err != nil {
			return res, err
		}
		for _, n := range desBytes {
			ring, err := desRing(mach, mv2, slots, n, tr)
			if err != nil {
				return res, err
			}
			evalDone()
			hier, err := desHier(mach, mv2, n, tr)
			if err != nil {
				return res, err
			}
			evalDone()
			sp := tr.begin("netmodel.cost")
			ringCF := nm.AllreduceRing(slots, n)
			tr.end(sp)
			sp = tr.begin("netmodel.cost")
			hierCF := nm.AllreduceHierLeader(slots, n)
			tr.end(sp)
			d.str(fmt.Sprintf("des %d %d", nodes, n))
			for _, v := range [][]float64{{ring.Finish, ringCF}, ring.PerRank, {hier.Finish, hierCF}, hier.PerRank} {
				for _, x := range v {
					d.float(x)
				}
			}
			if !(ring.Finish > 0 && ringCF > 0 && hier.Finish > 0 && hierCF > 0) || math.IsInf(ring.Finish+hier.Finish, 0) {
				return res, fmt.Errorf("des %d nodes %d bytes: non-positive finish (ring %g/%g, hier %g/%g)",
					nodes, n, ring.Finish, ringCF, hier.Finish, hierCF)
			}
		}
	}

	sp := tr.begin("core.staged_tune")
	rep, err := core.NewTuner(tuneGPUs, prof, seed).StagedTune(core.DefaultSpace())
	tr.end(sp)
	if err != nil {
		return res, fmt.Errorf("staged tune: %w", err)
	}
	for i := 0; i < rep.Evals; i++ {
		evalDone()
	}
	d.str(rep.Best.Candidate.Label())
	d.float(rep.Best.Efficiency)
	d.int(rep.Evals)
	for _, ev := range rep.Trace {
		d.float(ev.Result.ImgPerSec)
	}

	res.wall = time.Since(start)
	res.digest = d.sum()
	return res, nil
}

// desRing and desHier run one message-level simulation each on a
// fresh network: a DES network's state is single-use.
func desRing(mach topology.Machine, mpi *mpiprofile.Profile, slots []int, n int, tr *rankTrace) (*netsim.RingAllreduceResult, error) {
	nw, err := netsim.New(mach, mpi)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("netsim.ring")
	defer tr.end(sp)
	return nw.RingAllreduce(slots, n, nil)
}

func desHier(mach topology.Machine, mpi *mpiprofile.Profile, n int, tr *rankTrace) (*netsim.HierLeaderResult, error) {
	nw, err := netsim.New(mach, mpi)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("netsim.hier")
	defer tr.end(sp)
	return nw.HierLeaderAllreduce(n, nil)
}

// simSeeds is how many simulator seeds a sim-sweep run cycles
// through; the recorded digest covers one pass over each.
const simSeeds = 4

func simSeed(seed int64, i int) int64 { return seed*simSeeds + int64(i%simSeeds) }

// measureSim is sim-sweep's measured runs: full-grid passes, cycling
// over simSeeds simulator seeds, while another pass fits in the time
// budget. A pass that repeats a seed must repeat its digest.
func measureSim(e *env, r *report) error {
	start := time.Now()
	first := map[int64]string{}
	combined := newDigest()
	var goodputs, setups, steals []float64
	var stepMs [][]float64
	for i := 0; ; i++ {
		s := simSeed(e.seed, i)
		cpu := readCPUTimes()
		res, err := sweep(fullGrid, s, nil)
		problem := ""
		switch {
		case err != nil:
			problem = fmt.Sprintf("sweep seed %d: %v", s, err)
		case first[s] == "":
			first[s] = res.digest
			combined.str(res.digest)
		case first[s] != res.digest:
			problem = fmt.Sprintf("sweep seed %d: digest %s, earlier pass gave %s", s, res.digest, first[s])
		}
		steal := readCPUTimes().stealSince(cpu)
		fmt.Printf("# pass %d: sim seed %d wall=%.3fs steal=%.1f%% evals=%d digest=%s\n",
			i, s, res.wall.Seconds(), steal, res.evals, res.digest)
		// Every evaluation is an attempted operation; a failed or
		// mismatching pass counts once as failed.
		r.attempted += max(res.evals-1, 0)
		r.op(problem)
		if problem == "" {
			goodputs = append(goodputs, float64(res.evals)/res.wall.Seconds())
			setups = append(setups, res.setup.Seconds())
			stepMs = append(stepMs, res.largestMs)
			steals = append(steals, steal)
		}
		if err != nil || time.Since(start)+res.wall > time.Duration(e.seconds*float64(time.Second)) {
			break
		}
	}
	if len(first) == simSeeds {
		got := combined.sum()
		want := e.recorded()
		fmt.Printf("# digest: %s (recorded: %s)\n", got, orNone(want))
		if want != "" && got != want {
			r.op(fmt.Sprintf("sweep digest %s, want %s", got, want))
		}
	} else {
		fmt.Printf("# digest: only %d of %d simulator seeds ran; not compared\n", len(first), simSeeds)
	}

	use := quietest(steals)
	var steps []float64
	for _, i := range use {
		steps = append(steps, stepMs[i]...)
	}
	used := fmt.Sprintf("the %d of %d good passes with the least steal", len(use), len(steals))
	r.add("goodput_per_s", median(pick(goodputs, use)), "1/s", len(use),
		"sim_evals_per_s: perfsim runs, DES calls and tuner evaluations per wall second; median over "+used)
	r.add("step_p50_ms", quantile(steps, 0.50), "ms", len(steps),
		fmt.Sprintf("wall time of one perfsim.Run at %d GPUs, over %s", sweepGPUs[len(sweepGPUs)-1], used))
	r.add("step_p95_ms", quantile(steps, 0.95), "ms", len(steps), "same samples")
	r.add("setup_s", median(setups), "s", len(setups), "start of a sweep pass to its first evaluation, median")
	return nil
}
