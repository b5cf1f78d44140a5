package main

import (
	"fmt"
	"time"

	"segscale/internal/collective"
	"segscale/internal/deeplab"
	"segscale/internal/fp16"
	"segscale/internal/horovod"
	"segscale/internal/netmodel"
	"segscale/internal/topology"
	"segscale/internal/train"
	"segscale/internal/transport"
)

// commReps is how many steps' worth of allreduces the isolation pass
// times; it reports the median.
const commReps = 30

// fusedSizes returns the element count of every fused buffer one
// training step of cfg allreduces, planned by horovod.PlanFusion from
// the model's gradient sizes exactly as the runtime plans them.
func fusedSizes(cfg train.Config) []int {
	params := deeplab.New(cfg.Model).Params()
	bytes := make([]int, len(params))
	for i, p := range params {
		bytes[i] = 4 * p.G.Len()
	}
	var out []int
	for _, group := range horovod.PlanFusion(bytes, cfg.Horovod.FusionThreshold) {
		out = append(out, horovod.GroupBytes(bytes, group)/4)
	}
	return out
}

// wireFP16 reports whether cfg's gradients cross the wire as binary16.
func wireFP16(cfg train.Config) bool { return cfg.MixedPrecision || cfg.Horovod.FP16Compression }

// collectivePass runs one step's fused buffers through the algorithm
// and wire format cfg resolves to, on a bare transport world of cfg's
// size with no model, pack or cast around it, and reports the median
// per-rank time of a step's worth.
func collectivePass(cfg train.Config, r *report) error {
	sizes := fusedSizes(cfg)
	half := wireFP16(cfg)
	alg := cfg.Horovod.ResolveAlgorithm()
	mach := topology.ExactFor(cfg.World)
	group := make([]int, cfg.World)
	for i := range group {
		group[i] = i
	}
	nodes := make([][]int, mach.Nodes)
	for n := range nodes {
		nodes[n] = mach.NodeRanks(n)
	}
	intra, inter := topology.SummitLinkSpecs()
	times := make([][]float64, cfg.World)

	w, err := transport.NewWorld(cfg.World)
	if err != nil {
		return err
	}
	err = w.Run(func(c *transport.Comm) error {
		rank := c.Rank()
		bufs := make([][]float32, len(sizes))
		bufs16 := make([][]uint16, len(sizes))
		for i, n := range sizes {
			bufs[i] = make([]float32, n)
			bufs16[i] = make([]uint16, n)
		}
		for rep := 0; rep < commReps; rep++ {
			// Fresh small values every step, as gradients would be, so
			// repeated summation never overflows the wire format.
			for i := range bufs {
				for j := range bufs[i] {
					bufs[i][j] = float32((rank+j+rep)%7) * 1e-3
				}
				if err := fp16.Encode(bufs[i], bufs16[i]); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			t0 := time.Now()
			for i := range bufs {
				var err error
				if half {
					err = allreduce16(c, alg, mach, group, nodes, intra, inter, bufs16[i])
				} else {
					err = allreduce32(c, alg, mach, group, nodes, intra, inter, bufs[i])
				}
				if err != nil {
					return fmt.Errorf("%v allreduce of %d elements: %w", alg, len(bufs[i]), err)
				}
			}
			times[rank] = append(times[rank], float64(time.Since(t0))/float64(time.Millisecond))
		}
		return nil
	})
	if err != nil {
		return err
	}
	perRep := make([]float64, commReps)
	for rep := range perRep {
		for rank := range times {
			perRep[rep] += times[rank][rep] / float64(cfg.World)
		}
	}
	wire := "fp32"
	if half {
		wire = "fp16"
	}
	r.add("collective.allreduce_ms", median(perRep), "ms", commReps,
		fmt.Sprintf("%d fused buffers per step, %v over %s, bare world of %d", len(sizes), alg, wire, cfg.World))
	if half {
		return fp16Pass(sizes, r)
	}
	return probe(r, "fp32 wire in this workload; timed at its fused sizes", func() error { return fp16Pass(sizes, r) })
}

// allreduce32 and allreduce16 dispatch to the collective the Horovod
// runtime picks for the algorithm, over each wire format.
func allreduce32(c *transport.Comm, alg netmodel.Algorithm, mach topology.Machine, group []int, nodes [][]int, intra, inter topology.LinkSpec, buf []float32) error {
	switch alg {
	case netmodel.AlgHierLeader:
		return collective.AllreduceHierLeader(c, mach, buf)
	case netmodel.AlgHierTwoLevel:
		return collective.AllreduceHierGroups(c, nodes, intra, inter, buf)
	case netmodel.AlgRecursiveDoubling:
		return collective.AllreduceRecursiveDoubling(c, group, buf)
	case netmodel.AlgRabenseifner:
		return collective.AllreduceRabenseifner(c, group, buf)
	default:
		return collective.AllreduceRing(c, group, buf)
	}
}

func allreduce16(c *transport.Comm, alg netmodel.Algorithm, mach topology.Machine, group []int, nodes [][]int, intra, inter topology.LinkSpec, buf []uint16) error {
	switch alg {
	case netmodel.AlgHierLeader:
		return collective.AllreduceHierLeader16(c, mach, buf)
	case netmodel.AlgHierTwoLevel:
		return collective.AllreduceHierGroups16(c, nodes, intra, inter, buf)
	case netmodel.AlgRecursiveDoubling:
		return collective.AllreduceRecursiveDoubling16(c, group, buf)
	case netmodel.AlgRabenseifner:
		return collective.AllreduceRabenseifner16(c, group, buf)
	default:
		return collective.AllreduceRing16(c, group, buf)
	}
}

// fp16Pass times binary16 encode and decode of one step's fused
// buffers.
func fp16Pass(sizes []int, r *report) error {
	enc := make([]float64, commReps)
	dec := make([]float64, commReps)
	bufs := make([][]float32, len(sizes))
	bufs16 := make([][]uint16, len(sizes))
	for i, n := range sizes {
		bufs[i] = make([]float32, n)
		bufs16[i] = make([]uint16, n)
		for j := range bufs[i] {
			bufs[i][j] = float32(j%1013) * 1e-4
		}
	}
	for rep := 0; rep < commReps; rep++ {
		t0 := time.Now()
		for i := range bufs {
			if err := fp16.Encode(bufs[i], bufs16[i]); err != nil {
				return err
			}
		}
		t1 := time.Now()
		for i := range bufs {
			if err := fp16.Decode(bufs16[i], bufs[i]); err != nil {
				return err
			}
		}
		enc[rep] = float64(t1.Sub(t0)) / float64(time.Millisecond)
		dec[rep] = float64(time.Since(t1)) / float64(time.Millisecond)
	}
	r.add("fp16.encode_ms", median(enc), "ms", commReps, fmt.Sprintf("%d fused buffers, one step", len(sizes)))
	r.add("fp16.decode_ms", median(dec), "ms", commReps, "same buffers")
	return nil
}
