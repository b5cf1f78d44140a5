package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"sort"
)

// quantile returns the q-quantile of xs, interpolating linearly
// between the two closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// digest accumulates checked outputs bit-exactly: every float goes in
// as its IEEE-754 bits, so a digest repeats only if every value does.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) float(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	d.h.Write(b[:])
}

func (d *digest) int(v int) { d.float(float64(v)) }

func (d *digest) str(s string) {
	d.int(len(s))
	d.h.Write([]byte(s))
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// quietest returns, in order, the indices of the ceil(n/2) runs that
// lost the least CPU time to steal, or of every run when their steal
// shares are all equal (as where /proc/stat is missing). Steal is time
// the hypervisor gave to other tenants of the host: a run that lost
// more of it measured the host, not the program. The choice depends
// only on steal, never on the timings themselves.
func quietest(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	if len(steal) == 0 || slices.Min(steal) == slices.Max(steal) {
		return idx
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:(len(idx)+1)/2]
	sort.Ints(idx)
	return idx
}

// pick returns xs at the given indices.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}
