// Command bench is segscale's end-to-end and per-layer benchmark.
//
// It runs one workload for a fixed wall-clock budget and prints, as
// the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics. Every line before it is a
// '#'-prefixed header: the host, the seed, each metric with its sample
// count, and every check that failed.
//
//	bash bench/run.sh --workload train-dlv3-w2 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the workload's measured runs report the end-to-end
// metrics; the program runs with its tracing and observers off. With
// --trace 1 a separate traced pass reports the per-layer metrics. The
// workloads and the metric-to-layer mapping are described in README.md
// beside this file.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// workload is one named benchmark input: measure produces the
// end-to-end metrics, trace the per-layer ones.
type workload struct {
	name    string
	measure func(e *env, r *report) error
	trace   func(e *env, r *report) error
}

var workloads = []workload{
	{"train-dlv3-w2", measureTrainer(dlv3Config), traceTrainer(dlv3Config)},
	{"train-hier-w12-fp16", measureTrainer(hierConfig), traceTrainer(hierConfig)},
	{"sim-sweep", measureSim, traceSim},
}

// env is what every workload receives: its seed, its time budget, a
// scratch directory inside the checkout, and the recorded digests.
type env struct {
	workload string
	seed     int64
	seconds  float64
	tmp      string
	golden   map[string]map[string]string
}

// recorded returns the digest recorded for this workload and seed, or
// "" when none is.
func (e *env) recorded() string { return e.golden[e.workload][strconv.FormatInt(e.seed, 10)] }

//go:embed digests.json
var digestsJSON []byte

// metric is one reported number. n is the sample count behind it (0
// when it is a single measurement or a count); note says how it was
// taken.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// report collects the metrics, the attempted and failed operations,
// and the reason for each failure.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	problems  []string
}

func (r *report) add(name string, value float64, unit string, n int, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, n, note})
}

// op records one attempted operation; a non-empty problem marks it
// failed.
func (r *report) op(problem string) {
	r.attempted++
	if problem != "" {
		r.failed++
		r.problems = append(r.problems, problem)
	}
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "measured wall-clock budget")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the measured runs")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int) error {
	var w *workload
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds %g: want a positive budget", seconds)
	}
	// Load comes from this one process; pin its parallelism to the
	// CPUs it may run on and record both.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	e := &env{workload: name, seed: seed, seconds: seconds}
	if err := json.Unmarshal(digestsJSON, &e.golden); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	// Checkpoints stay inside the checkout, under the build directory
	// the wrapper script uses.
	scratch := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(scratch, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e.tmp = tmp

	fmt.Printf("# segscale bench: workload=%s seed=%d seconds=%g trace=%d\n", name, seed, seconds, trace)
	fmt.Printf("# host: gomaxprocs=%d nproc=%d go=%s %s/%s rev=%s src=%s\n",
		runtime.GOMAXPROCS(0), nproc, runtime.Version(), runtime.GOOS, runtime.GOARCH, gitRev(), sourceDigest())

	cpu := readCPUTimes()
	r := &report{}
	if trace == 1 {
		err = w.trace(e, r)
	} else {
		err = w.measure(e, r)
		if err == nil {
			r.add("peak_rss_mb", peakRSSMB(), "MB", 0, "VmHWM of this process")
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("# host: %.1f%% of CPU time was stolen by the hypervisor while this ran\n", readCPUTimes().stealSince(cpu))
	return emit(r)
}

// emit prints the header lines for every metric and failure, then the
// result object as the last line.
func emit(r *report) error {
	out := map[string]map[string]any{}
	correct := r.failed == 0
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			// No operation behind it succeeded: the failures are
			// already counted, and the result cannot be correct.
			r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", m.name, m.value))
			correct = false
			m.value = 0
		}
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf(" (n=%d)", m.n)
		}
		note := ""
		if m.note != "" {
			note = "  -- " + m.note
		}
		fmt.Printf("# %-34s %14.6g %-6s%s%s\n", m.name, m.value, m.unit, n, note)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	sort.Strings(r.problems)
	for _, p := range r.problems {
		fmt.Printf("# FAILED: %s\n", p)
	}
	if r.attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	fmt.Printf("# ops_failed_ratio %d/%d = %g\n", r.failed, r.attempted, float64(r.failed)/float64(r.attempted))
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
