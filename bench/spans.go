package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, made by the benchmark around a
// public function of the program.
type span struct {
	name       string
	rank, step int
	start, end time.Duration // since the trace's origin
	parent     int           // index of the enclosing span on the same rank, or -1
}

// rankTrace records one rank's spans in memory. It is owned by one
// goroutine; a nil *rankTrace records nothing, so untraced callers can
// pass nil.
type rankTrace struct {
	rank  int
	step  int // the training step spans are attributed to
	t0    time.Time
	spans []span
	open  []int
}

// newRankTrace preallocates room for capacity spans, so recording does
// not allocate in the steps whose allocations are counted.
func newRankTrace(rank int, t0 time.Time, capacity int) *rankTrace {
	return &rankTrace{rank: rank, t0: t0, spans: make([]span, 0, capacity), open: make([]int, 0, 8)}
}

func (t *rankTrace) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, rank: t.rank, step: t.step, start: time.Since(t.t0), parent: parent})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *rankTrace) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// layerTime is the aggregate of every span of one name.
type layerTime struct {
	self  time.Duration // duration minus the time child spans cover
	count int
}

// selfTimes aggregates self time by span name over all ranks, for the
// spans of step from onwards.
func selfTimes(traces []*rankTrace, from int) map[string]*layerTime {
	out := map[string]*layerTime{}
	for _, t := range traces {
		child := make([]time.Duration, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			if s.step < from {
				continue
			}
			lt := out[s.name]
			if lt == nil {
				lt = &layerTime{}
				out[s.name] = lt
			}
			lt.self += s.end - s.start - child[i]
			lt.count++
		}
	}
	return out
}

// perCallMs is a layer's mean self time per span, in milliseconds.
func perCallMs(lt map[string]*layerTime, name string) float64 {
	l := lt[name]
	if l == nil || l.count == 0 {
		return 0
	}
	return float64(l.self) / float64(time.Millisecond) / float64(l.count)
}

// perStepMs is a layer's self time per rank-step, in milliseconds.
func perStepMs(lt map[string]*layerTime, name string, rankSteps int) float64 {
	l := lt[name]
	if l == nil || rankSteps == 0 {
		return 0
	}
	return float64(l.self) / float64(time.Millisecond) / float64(rankSteps)
}

// writeSpans writes every span as one JSON object per line to
// .bench_build/spans/<file>, and returns the path.
func writeSpans(file string, traces []*rankTrace) (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range traces {
		for _, s := range t.spans {
			err := enc.Encode(struct {
				Name    string `json:"name"`
				Rank    int    `json:"rank"`
				Step    int    `json:"step"`
				StartUS int64  `json:"start_us"`
				EndUS   int64  `json:"end_us"`
				Parent  int    `json:"parent"`
			}{s.name, s.rank, s.step, s.start.Microseconds(), s.end.Microseconds(), s.parent})
			if err != nil {
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, f.Close()
}
