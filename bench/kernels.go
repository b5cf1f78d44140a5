package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"segscale/internal/deeplab"
	"segscale/internal/tensor"
	"segscale/internal/train"
)

// convShape is one convolution of the model as the trainer runs it:
// its input batch shape, weight shape and geometry.
type convShape struct {
	kind       string // conv3x3, dw3x3 or pw1x1
	n, c, h, w int    // input
	weight     *tensor.Tensor
	spec       tensor.ConvSpec
}

var convKinds = []string{"conv3x3", "dw3x3", "pw1x1"}

// modelConvs lists the convolutions of cfg's DeepLab from the weight
// shapes net.Params() reports. The weights do not carry the input
// size, stride or dilation, so those come from where each named conv
// sits in deeplab.New's graph: the entry conv reads the input at
// output-stride 1, the first block and the decoder run at stride 2,
// the deep blocks and the ASPP head at stride 4.
func modelConvs(cfg train.Config) ([]convShape, error) {
	mc := cfg.Model
	s := mc.InputSize
	var out []convShape
	for _, p := range deeplab.New(mc).Params() {
		name, ok := strings.CutSuffix(p.Name, ".w")
		if !ok || len(p.W.Shape) != 4 {
			continue
		}
		outC, inPerGroup, k := p.W.Shape[0], p.W.Shape[1], p.W.Shape[2]
		in, stride, dilation := 0, 1, 1
		switch {
		case name == "entry":
			in, stride = s, 2
		case name == "down.sep1.dw", name == "down.sep1.pw":
			in = s / 2
		case name == "down.sep2.dw", name == "down.proj":
			in, stride = s/2, 2
		case name == "down.sep2.pw":
			in = s / 4
		case strings.HasPrefix(name, "deep"):
			in = s / 4
			if strings.HasSuffix(name, ".dw") {
				dilation = 2
			}
		case name == "aspp.b0", name == "aspp.proj":
			in = s / 4
		case name == "aspp.b1", name == "aspp.b2", name == "aspp.b3":
			in, dilation = s/4, mc.AtrousRates[name[len(name)-1]-'1']
		case name == "aspp.pool":
			in = 1
		case name == "dec.low", name == "dec.fuse1", name == "dec.fuse2", name == "classifier":
			in = s / 2
		default:
			return nil, fmt.Errorf("conv %q: no known place in the DeepLab graph", p.Name)
		}
		cs := convShape{n: cfg.BatchPerRank, c: inPerGroup, h: in, w: in, weight: p.W}
		cs.spec = tensor.ConvSpec{Stride: stride, Dilation: dilation}
		switch {
		case k == 3 && strings.HasSuffix(name, ".dw"):
			cs.kind, cs.c, cs.spec.Groups = "dw3x3", outC, outC
		case k == 3:
			cs.kind = "conv3x3"
		case k == 1:
			cs.kind = "pw1x1"
		default:
			return nil, fmt.Errorf("conv %q: %d×%d kernel", p.Name, k, k)
		}
		if k == 3 {
			cs.spec.Pad = tensor.SamePad(3, dilation)
			if stride == 2 {
				cs.spec.Pad = 1
			}
		}
		out = append(out, cs)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("model has no convolutions")
	}
	return out, nil
}

// cost returns the forward and backward floating-point operations and
// the bytes each must move at minimum (read inputs and weights, write
// outputs), computed from the shapes: a CPU run can count these but
// not measure a device's utilisation.
func (cs convShape) cost() (fwdFlop, bwdFlop, fwdBytes, bwdBytes float64) {
	sp := cs.spec.Canon()
	k := cs.weight.Shape[2]
	oh := tensor.ConvOutSize(cs.h, k, sp.Stride, sp.Pad, sp.Dilation)
	ow := tensor.ConvOutSize(cs.w, k, sp.Stride, sp.Pad, sp.Dilation)
	outC := cs.weight.Shape[0]
	x := float64(cs.n * cs.c * cs.h * cs.w)
	wt := float64(cs.weight.Len())
	y := float64(cs.n * outC * oh * ow)
	fwdFlop = 2 * float64(cs.n*outC*cs.weight.Shape[1]*k*k*oh*ow)
	bwdFlop = 2 * fwdFlop // input gradient and weight gradient
	fwdBytes = 4 * (x + wt + y)
	bwdBytes = 4 * (x + wt + y + x + wt) // read x, w, dy; write dx, dw
	return
}

// kernelReps is how many times the kernel pass times each conv; it
// reports the median.
const kernelReps = 15

// kernelPass times tensor.Conv2DWS and Conv2DBackwardWS on every conv
// of the model at the trainer's per-rank batch, and reports per kind
// the time of one training step's worth of each, the achieved rate
// and the bytes moved.
func kernelPass(cfg train.Config, r *report) error {
	convs, err := modelConvs(cfg)
	if err != nil {
		return err
	}
	type agg struct {
		fwd, bwd    time.Duration
		flop, bytes float64
		n           int
	}
	kinds := map[string]*agg{}
	for _, k := range convKinds {
		kinds[k] = &agg{}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ws := tensor.NewWorkspace()
	for _, cs := range convs {
		x := tensor.Randn(rng, 1, cs.n, cs.c, cs.h, cs.w)
		fwd := make([]float64, kernelReps)
		bwd := make([]float64, kernelReps)
		for i := 0; i < kernelReps; i++ {
			ws.Reset()
			t0 := time.Now()
			y := tensor.Conv2DWS(x, cs.weight, cs.spec, ws)
			t1 := time.Now()
			tensor.Conv2DBackwardWS(x, cs.weight, y, cs.spec, ws)
			fwd[i] = float64(t1.Sub(t0))
			bwd[i] = float64(time.Since(t1))
		}
		a := kinds[cs.kind]
		a.fwd += time.Duration(median(fwd))
		a.bwd += time.Duration(median(bwd))
		ff, bf, fb, bb := cs.cost()
		a.flop += ff + bf
		a.bytes += fb + bb
		a.n++
	}
	ws.Reset()
	for _, k := range convKinds {
		a := kinds[k]
		note := fmt.Sprintf("%d convs, median of %d", a.n, kernelReps)
		r.add("tensor."+k+".fwd_ms", float64(a.fwd)/float64(time.Millisecond), "ms", a.n, note+"; one rank-step's forward")
		r.add("tensor."+k+".bwd_ms", float64(a.bwd)/float64(time.Millisecond), "ms", a.n, note+"; one rank-step's backward")
		r.add("tensor."+k+".gflop_per_s", a.flop/(a.fwd+a.bwd).Seconds()/1e9, "GFLOP/s", a.n, "operation count from shapes over measured time")
		r.add("tensor."+k+".mb_moved", a.bytes/1e6, "MB", a.n, "compulsory bytes from shapes, forward plus backward")
	}
	return nil
}
