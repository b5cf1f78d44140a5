package collective

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"segscale/internal/fp16"
	"segscale/internal/telemetry"
	"segscale/internal/timeline"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// sendLog is a transport.Injector that never faults and records every
// delivery attempt as dst:tag#seq, kept per source rank. A rank's
// sends are sequential, so each per-source list is deterministic even
// though ranks run concurrently.
type sendLog struct {
	mu    sync.Mutex
	bySrc map[int][]string
}

func (l *sendLog) Message(src, dst, tag, attempt int, seq uint64) transport.Fault {
	l.mu.Lock()
	l.bySrc[src] = append(l.bySrc[src], fmt.Sprintf("%d:%#x#%d", dst, tag, seq))
	l.mu.Unlock()
	return transport.FaultNone
}

// traceWire runs fn once over a fresh p-rank world with every rank
// instrumented and the send log armed, and renders the observable
// traffic: per rank, the bytes the transport sent, the collective
// payload bytes, the collective span names in start order, every send
// as dst:tag#seq, and a digest of the rank's final buffer.
func traceWire[E float32 | uint16](t *testing.T, p, n int, fn func(*transport.Comm, []int, []E) error) string {
	t.Helper()
	w, err := transport.NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	log := &sendLog{bySrc: map[int][]string{}}
	w.SetInjector(log)
	probes := make([]*telemetry.Probe, p)
	for r := range probes {
		probes[r] = telemetry.NewProbe(fmt.Sprintf("rank%d", r), telemetry.NewStepClock())
	}
	group := make([]int, p)
	for i := range group {
		group[i] = i
	}
	outs := make([][]E, p)
	if err := w.Run(func(c *transport.Comm) error {
		c.SetProbe(probes[c.Rank()])
		buf := make([]E, n)
		for i := range buf {
			buf[i] = wireValue[E](float32((c.Rank()+i)%9 - 4))
		}
		if err := fn(c, group, buf); err != nil {
			return err
		}
		outs[c.Rank()] = buf
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	for r, pr := range probes {
		spans := pr.Tracer().Spans()
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		var names []string
		for _, s := range spans {
			if s.Phase != timeline.PhaseSend && s.Phase != timeline.PhaseRecv {
				names = append(names, s.Phase+"/"+s.Name)
			}
		}
		fmt.Fprintf(&b, "  rank %d sent_bytes=%.0f payload_bytes=%.0f out=%016x spans=[%s] sends=[%s]\n",
			r, pr.Counter("transport_sent_bytes").Value(), pr.Counter("collective_payload_bytes").Value(),
			digest(outs[r]), strings.Join(names, " "), strings.Join(log.bySrc[r], " "))
	}
	return b.String()
}

// wireValue converts a small exact value to the wire element type.
func wireValue[E float32 | uint16](v float32) E {
	var z E
	if _, half := any(z).(uint16); half {
		return E(fp16.FromFloat32(v))
	}
	return E(v)
}

// digest hashes a buffer's little-endian wire bytes.
func digest[E float32 | uint16](buf []E) uint64 {
	h := fnv.New64a()
	var tmp [4]byte
	for _, v := range buf {
		switch x := any(v).(type) {
		case float32:
			binary.LittleEndian.PutUint32(tmp[:], math.Float32bits(x))
			h.Write(tmp[:4])
		case uint16:
			binary.LittleEndian.PutUint16(tmp[:], x)
			h.Write(tmp[:2])
		}
	}
	return h.Sum64()
}

// onGroups adapts a node-partition collective to the flat signature.
func onGroups[E float32 | uint16](groups [][]int, fn func(*transport.Comm, [][]int, topology.LinkSpec, topology.LinkSpec, []E) error) func(*transport.Comm, []int, []E) error {
	intra, inter := topology.SummitLinkSpecs()
	return func(c *transport.Comm, _ []int, buf []E) error { return fn(c, groups, intra, inter, buf) }
}

// onMachine adapts a machine-shaped collective to the flat signature.
func onMachine[E float32 | uint16](fn func(*transport.Comm, topology.Machine, []E) error) func(*transport.Comm, []int, []E) error {
	return func(c *transport.Comm, group []int, buf []E) error {
		return fn(c, topology.ExactFor(len(group)), buf)
	}
}

// TestWireScheduleGolden pins the traffic every allreduce schedule
// generates on both wires — tags, per-pair sequence numbers,
// destinations, transport and payload byte counts, span names and the
// reduced result — at several world sizes and at a small and a large
// buffer (the hierarchical level picks depend on buffer length). The
// fault injector hashes tags, so any drift here also moves chaos
// draws. Regenerate with
// `go test ./internal/collective/ -run TestWireScheduleGolden -update`.
func TestWireScheduleGolden(t *testing.T) {
	type algPair struct {
		name string
		f32  func(*transport.Comm, []int, []float32) error
		f16  func(*transport.Comm, []int, []uint16) error
	}
	algs := []algPair{
		{"naive", AllreduceNaive[float32], AllreduceNaive[uint16]},
		{"ring", AllreduceRing[float32], AllreduceRing16},
		{"rd", AllreduceRecursiveDoubling[float32], AllreduceRecursiveDoubling16},
		{"rab", AllreduceRabenseifner[float32], AllreduceRabenseifner16},
		{"reduce-tree", ReduceTree[float32], ReduceTree[uint16]},
		{"bcast-tree", BcastTree[float32], BcastTree[uint16]},
		{"hier-leader", onMachine(AllreduceHierLeader[float32]), onMachine(AllreduceHierLeader16)},
		{"hier-2level", onMachine(AllreduceHierTwoLevel[float32]), onMachine(AllreduceHierTwoLevel[uint16])},
	}
	lengths := []int{37, 1 << 16}
	var b strings.Builder
	for _, a := range algs {
		for _, p := range []int{1, 2, 3, 5, 8} {
			for _, n := range lengths {
				fmt.Fprintf(&b, "%s fp32 p=%d n=%d\n%s", a.name, p, n, traceWire(t, p, n, a.f32))
				fmt.Fprintf(&b, "%s fp16 p=%d n=%d\n%s", a.name, p, n, traceWire(t, p, n, a.f16))
			}
		}
	}
	shapes := []struct {
		name   string
		groups [][]int
	}{
		{"hier-groups-2x3", [][]int{{0, 1, 2}, {3, 4, 5}}},
		{"hier-groups-3+2", [][]int{{0, 1, 2}, {3, 4}}},
	}
	for _, s := range shapes {
		p := 0
		for _, g := range s.groups {
			p += len(g)
		}
		for _, n := range lengths {
			fmt.Fprintf(&b, "%s fp32 p=%d n=%d\n%s", s.name, p, n, traceWire(t, p, n, onGroups(s.groups, AllreduceHierGroups[float32])))
			fmt.Fprintf(&b, "%s fp16 p=%d n=%d\n%s", s.name, p, n, traceWire(t, p, n, onGroups(s.groups, AllreduceHierGroups16)))
		}
	}
	got := b.String()

	goldenPath := filepath.Join("testdata", "wire_schedule.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("wire schedule drifted from golden at line %d (regenerate with -update if intended):\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("wire schedule drifted from golden: %d lines vs %d", len(gl), len(wl))
	}
}
