package collective

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"segscale/internal/faultinject"
	"segscale/internal/fp16"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

// allAlgorithms maps the allreduce implementations under test, on
// wire E: the four flat algorithms plus the two-level hierarchical
// compositions. The hierarchical entries derive node groups from the
// exact machine for the world size (so prime worlds become 1
// rank/node); the "-torus" and "-leader" variants pin the composition
// with synthetic link specs (zero latency forces the ring pick and the
// torus path; a huge α forces the latency-lean pick and the leader
// path), since the real Summit specs would otherwise choose by buffer
// size alone.
func allAlgorithms[E Wire]() map[string]func(*transport.Comm, []int, []E) error {
	return map[string]func(*transport.Comm, []int, []E) error{
		"naive": AllreduceNaive[E],
		"ring":  AllreduceRing[E],
		"rd":    AllreduceRecursiveDoubling[E],
		"rab":   AllreduceRabenseifner[E],
		"hier-2level": func(c *transport.Comm, group []int, buf []E) error {
			return AllreduceHierTwoLevel(c, topology.ExactFor(len(group)), buf)
		},
		"hier-torus": func(c *transport.Comm, group []int, buf []E) error {
			ringSpec := topology.LinkSpec{AlphaSec: 0, BWBytesPerSec: 1e12}
			return AllreduceHierGroups(c, exactNodeGroups(group), ringSpec, ringSpec, buf)
		},
		"hier-leader": func(c *transport.Comm, group []int, buf []E) error {
			treeSpec := topology.LinkSpec{AlphaSec: 1, BWBytesPerSec: 1e12}
			return AllreduceHierGroups(c, exactNodeGroups(group), treeSpec, treeSpec, buf)
		},
	}
}

// toWire encodes float32 inputs onto wire E (binary16 rounds to
// nearest even; float32 copies).
func toWire[E Wire](in []float32) []E {
	out := make([]E, len(in))
	switch o := any(out).(type) {
	case []uint16:
		if err := fp16.Encode(in, o); err != nil {
			panic(err)
		}
	case []float32:
		copy(o, in)
	}
	return out
}

// fromWire decodes a wire-E buffer to float64.
func fromWire[E Wire](in []E) []float64 {
	out := make([]float64, len(in))
	for i, v := range in {
		switch x := any(v).(type) {
		case uint16:
			out[i] = float64(fp16.ToFloat32(x))
		case float32:
			out[i] = float64(x)
		}
	}
	return out
}

// tolerance bounds |got − want| for one element of a p-rank allreduce
// on wire E whose inputs have absolute sum sumAbs. float32 keeps the
// reassociation bound 1e-4·p. On binary16 every one of the at most
// p−1 reduce hops rounds its partial sum — bounded by sumAbs — to
// within half an ULP (2⁻¹¹ relative), plus half the subnormal spacing.
func tolerance[E Wire](p int, sumAbs float64) float64 {
	if wireOf[E]().bytes == 2 {
		return float64(p) * (sumAbs/2048 + 1.0/(1<<25))
	}
	return 1e-4 * float64(p)
}

// exactNodeGroups partitions an identity rank group into the node
// groups of its exact machine layout.
func exactNodeGroups(group []int) [][]int {
	mach := topology.ExactFor(len(group))
	groups := make([][]int, mach.Nodes)
	for n := range groups {
		groups[n] = mach.NodeRanks(n)
	}
	return groups
}

// runAllreduceWorld executes one allreduce over a fresh world —
// optionally with a chaos plan armed — and returns every rank's
// output buffer.
func runAllreduceWorld[E Wire](t *testing.T, fn func(*transport.Comm, []int, []E) error, ins [][]E, plan *faultinject.Plan) [][]E {
	t.Helper()
	p := len(ins)
	w, err := transport.NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		plan.Arm(w)
	}
	group := make([]int, p)
	for i := range group {
		group[i] = i
	}
	outs := make([][]E, p)
	if err := w.Run(func(c *transport.Comm) error {
		buf := make([]E, len(ins[c.Rank()]))
		copy(buf, ins[c.Rank()])
		if err := fn(c, group, buf); err != nil {
			return err
		}
		outs[c.Rank()] = buf
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return outs
}

// wireInputs builds makeInputs' per-rank vectors on wire E.
func wireInputs[E Wire](p, n int, seed int64) [][]E {
	ins, _ := makeInputs(p, n, seed)
	out := make([][]E, p)
	for r := range ins {
		out[r] = toWire[E](ins[r])
	}
	return out
}

// refSum is the sequential reference: an elementwise float64 sum in
// rank order of the decoded inputs, the ground truth every distributed
// algorithm must approximate, and the elementwise absolute sum that
// bounds every partial sum.
func refSum[E Wire](ins [][]E) (sum, sumAbs []float64) {
	if len(ins) == 0 {
		return nil, nil
	}
	sum = make([]float64, len(ins[0]))
	sumAbs = make([]float64, len(ins[0]))
	for _, in := range ins {
		for i, v := range fromWire(in) {
			sum[i] += v
			sumAbs[i] += math.Abs(v)
		}
	}
	return sum, sumAbs
}

// TestPropertyAllreduceMatchesReference: for random world sizes,
// vector lengths, and inputs, every algorithm's output on every rank
// stays within the wire's accumulation tolerance of the sequential
// float64 sum — on float32 and on the binary16 wire.
func TestPropertyAllreduceMatchesReference(t *testing.T) {
	propertyMatchesReference[float32](t)
	propertyMatchesReference[uint16](t)
}

// wireSuffix qualifies subtest names the way span names are: "-fp16"
// on the binary16 wire, nothing on float32.
func wireSuffix[E Wire]() string {
	return wireOf[E]().spans.suffix
}

func propertyMatchesReference[E Wire](t *testing.T) {
	for name, fn := range allAlgorithms[E]() {
		t.Run(name+wireSuffix[E](), func(t *testing.T) {
			prop := func(seed int64, pRaw, nRaw uint16) bool {
				p := 1 + int(pRaw%9) // 1..9 ranks
				n := int(nRaw % 300) // 0..299 elements (empty allowed)
				ins := wireInputs[E](p, n, seed)
				outs := runAllreduceWorld(t, fn, ins, nil)
				want, sumAbs := refSum(ins)
				for r := 0; r < p; r++ {
					got := fromWire(outs[r])
					for i := range want {
						if math.Abs(got[i]-want[i]) > tolerance[E](p, sumAbs[i]) {
							t.Logf("p=%d n=%d seed=%d rank %d elem %d: %g vs %g",
								p, n, seed, r, i, got[i], want[i])
							return false
						}
					}
				}
				return true
			}
			cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(int64(len(name))))}
			if err := quick.Check(prop, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPropertyRecoverableFaultsPreserveResults: message drop (with
// retries), duplication, and delay are invisible to the application —
// every algorithm must produce bitwise-identical buffers with and
// without a recoverable chaos plan armed, on float32 and on the
// binary16 wire. This is the correctness half of the fault-injection
// contract; the latency half lives in perfsim.
func TestPropertyRecoverableFaultsPreserveResults(t *testing.T) {
	recoverableFaultsPreserveResults[float32](t)
	recoverableFaultsPreserveResults[uint16](t)
}

func recoverableFaultsPreserveResults[E Wire](t *testing.T) {
	plans := []*faultinject.Plan{
		{Seed: 11, DropRate: 0.08, MaxAttempts: 12},
		{Seed: 12, DupRate: 0.15},
		{Seed: 13, DelayRate: 0.15},
		{Seed: 14, DropRate: 0.04, DupRate: 0.05, DelayRate: 0.06, MaxAttempts: 12},
	}
	cases := []struct{ p, n int }{{2, 17}, {3, 64}, {5, 33}, {8, 1023}}
	for name, fn := range allAlgorithms[E]() {
		t.Run(name+wireSuffix[E](), func(t *testing.T) {
			for _, cse := range cases {
				ins := wireInputs[E](cse.p, cse.n, int64(cse.p*1000+cse.n))
				clean := runAllreduceWorld(t, fn, ins, nil)
				for _, plan := range plans {
					if err := plan.Validate(); err != nil {
						t.Fatal(err)
					}
					faulty := runAllreduceWorld(t, fn, ins, plan)
					for r := 0; r < cse.p; r++ {
						for i := range clean[r] {
							if clean[r][i] != faulty[r][i] {
								t.Fatalf("p=%d n=%d plan %q rank %d elem %d: %v (clean) vs %v (faulty)",
									cse.p, cse.n, plan, r, i, clean[r][i], faulty[r][i])
							}
						}
					}
				}
			}
		})
	}
}
