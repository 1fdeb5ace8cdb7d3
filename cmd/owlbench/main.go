// Command owlbench is the repository's benchmark: six workloads over the two
// real pipelines — batch (N-Triples bytes to a merged, serialized closure) and
// live (a served KB under open- and closed-loop traffic) — each reporting the
// same end-to-end metrics with tracing off and a per-layer breakdown with
// tracing on. See README.md for why each workload exists and what every
// metric means.
//
//	owlbench --workload NAME --seed N --seconds S --trace 0|1
//	    one run of one workload in this process (what BENCHMARK.json's
//	    command invokes); the last line of output is the result object.
//	owlbench [-seed N] [-runs R] [-out FILE]
//	    every workload, each run in a fresh child process, untraced R times
//	    (seeds N..N+R-1) and traced once; writes one result file.
//	owlbench compare OLD.json NEW.json
//	    one row per (metric, workload) with a verdict; exits 1 on a
//	    regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("owlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload in this process and print its result object")
	seed := fs.Int64("seed", 1, "workload seed: same seed, same inputs")
	seconds := fs.Float64("seconds", runSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	scale := fs.Float64("scale", 1, "input size as a share of the checked-in size (tests use 0.05)")
	traceOut := fs.String("trace-out", "", "traced run: also write the spans here as Chrome-trace JSON")
	runs := fs.Int("runs", 1, "suite: untraced runs per workload, on consecutive seeds")
	out := fs.String("out", "owlbench-result.json", "suite: result file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "owlbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *name == "" {
		return suiteMain(*seed, *runs, *seconds, *scale, *out, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "owlbench: unknown workload %q\n", *name)
		return 2
	}
	rep, err := runWorkload(w, *seed, *seconds, *scale, *trace == 1, *traceOut)
	if err != nil {
		fmt.Fprintf(stderr, "owlbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(stdout)
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// report is what one run of one workload found.
type report struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	failures  []string // the first few, for the operator
	e2e       map[string]float64
	layer     map[string]float64
	details   []detailMetric
	digest    string
}

// detailMetric is a number printed and kept for the reader that is not part
// of the fixed end-to-end list: the issue's own metric names, quartiles,
// sample counts, generator lateness.
type detailMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) fail(format string, args ...any) { r.failN(1, format, args...) }

func (r *report) failN(n int, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) detail(name string, v float64, unit string) {
	r.details = append(r.details, detailMetric{name, v, unit})
}

// runWorkload performs one run: set-up (several times, for a steady
// setup_s), then the untraced or the traced measurement.
func runWorkload(w workload, seed int64, seconds, scale float64, traced bool, traceOut string) (*report, error) {
	runtime.GOMAXPROCS(benchProcs())

	rep := &report{workload: w.name, traced: traced, e2e: map[string]float64{}, layer: map[string]float64{}}
	var setups []float64
	var in *batchInput
	var r *rig
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		in, r = nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if w.kind == kindBatch {
			in, err = setupBatch(w, seed, scale)
		} else {
			r, err = setupServe(w, seed, scale, seconds)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	tr := newTracer()
	var err error
	switch {
	case w.kind == kindBatch && !traced:
		runBatch(w, in, seconds, rep)
	case w.kind == kindBatch:
		traceBatch(w, in, seconds, tr, rep)
	case !traced:
		err = runServe(r, seconds, rep)
	default:
		err = traceServe(r, tr, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["peak_rss_mb"] = peakRSSMB()
	if traced && traceOut != "" {
		if err := writeChromeTrace(traceOut, tr.spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// benchProcs is the GOMAXPROCS of every run. The reference host has two
// cores; more would change what Threads=2 and two workers mean, so a run
// never uses more.
func benchProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// peakRSSMB is VmHWM of this process: the most resident memory it ever held.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// resultLine is the object the driver reads from the last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detailPrefix marks the line that carries the run's detail metrics to the
// suite's parent process.
const detailPrefix = "#detail "

// print writes every metric by name with its unit, then the detail line,
// then the result object as the last line.
func (r *report) print(w io.Writer) {
	specs, values := endToEnd, r.e2e
	if r.traced {
		specs, values = perLayer, r.layer
	}
	fmt.Fprintf(w, "workload %s  trace %v\n", r.workload, r.traced)
	line := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	for _, s := range specs {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", s.name, values[s.name], s.unit)
		line.Metrics[s.name] = metricValue{values[s.name], s.unit}
	}
	for _, d := range r.details {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, d.Value, d.Unit)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-30s %14.6g ratio (%d of %d)\n", "failed_frac", frac, r.failed, r.attempted)
	if r.digest != "" {
		fmt.Fprintf(w, "  closure digest: %s\n", r.digest)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	detail, _ := json.Marshal(map[string]any{"details": r.details, "digest": r.digest, "failures": r.failures})
	fmt.Fprintf(w, "%s%s\n", detailPrefix, detail)
	last, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", last)
}
