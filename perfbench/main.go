// Command perfbench is the repository benchmark. It measures the three
// paths a user of the reproduction takes — regenerating artifacts cold,
// rehydrating them from the persistent result store, and querying the
// router-fronted serving fleet — checks every output against an
// independent reference, and prints one JSON result line.
//
// Run it from the repository root (perfbench/run.sh builds it first):
//
//	perfbench --workload regen-cold|rehydrate|serve-route --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 it carries the per-layer metrics, derived
// from spans the benchmark records around its calls into each layer; the
// spans are written to the state directory when the run ends. README.md
// in this directory maps every metric to the workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// options are the command's flags.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	tiny      bool
	goldenDir string
	stateDir  string
}

// workloads maps each workload name to the function that runs it. Each
// measures for o.seconds, records metrics and checks on rep, and returns
// an error only when the run cannot produce a result at all.
var workloads = map[string]func(o options, work string, rep *report) error{
	"regen-cold":  runRegenCold,
	"rehydrate":   runRehydrate,
	"serve-route": runServeRoute,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: regen-cold, rehydrate or serve-route")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = traced per-layer run")
	fs.BoolVar(&o.tiny, "tiny", false, "tiny input sizes (the benchmark's own tests)")
	fs.StringVar(&o.goldenDir, "golden-dir", filepath.Join("internal", "experiments", "testdata"),
		"directory of the committed golden renders (read only)")
	fs.StringVar(&o.stateDir, "state-dir", filepath.Join(".bench_build", "state"),
		"directory for scratch stores, determinism counts and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[o.workload]
	if !ok || fs.NArg() > 0 || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload regen-cold|rehydrate|serve-route --seed N --seconds S --trace 0|1 (got workload %q)\n", o.workload)
		return 2
	}
	o.trace = *trace == 1
	// GOMAXPROCS never exceeds the CPUs this process may run on.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if err := os.MkdirAll(o.stateDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(o.stateDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	rep := &report{trace: o.trace, values: map[string]float64{}}
	if o.trace {
		rep.tr = newTracer()
	}
	if err := drive(o, work, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.trace {
		path := filepath.Join(o.stateDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := rep.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		rep.set("trace.spans", float64(rep.tr.count()))
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
		rep.tr.printSelf(stdout)
	}
	return rep.emit(stdout, stderr)
}

// report collects one run's metrics and correctness outcome.
type report struct {
	trace bool
	tr    *tracer // nil when tracing is off
	// attempted counts operations and checks; failed counts the ones that
	// errored or produced a wrong output, each described in problems.
	attempted, failed int
	problems          []string
	values            map[string]float64
	notes             []string
}

// op records one operation's outcome.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
}

// check records one correctness check; a non-nil err is a mismatch.
func (r *report) check(what string, err error) {
	if err != nil {
		err = fmt.Errorf("%s: %w", what, err)
	}
	r.op(err)
}

// samples notes the timed operations' sample count and spread, so the
// count behind each median shows.
func (r *report) samples(ms []float64) {
	r.notef("# op samples n=%d ms: min %.2f p25 %.2f p50 %.2f p75 %.2f max %.2f", len(ms),
		quantile(ms, 0), quantile(ms, 0.25), median(ms), quantile(ms, 0.75), quantile(ms, 1))
}

// notef adds a line to the human-readable part of the output.
func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// set records a metric value. Names must come from the metric tables.
func (r *report) set(name string, v float64) {
	if _, ok := unitOf[name]; !ok {
		panic("perfbench: unlisted metric " + name)
	}
	r.values[name] = v
}

// emit prints every recorded value by name with its unit, then the
// result line, and returns the exit code: non-zero on any mismatch.
func (r *report) emit(stdout, stderr io.Writer) int {
	r.set("failed_frac", float64(r.failed)/float64(max(r.attempted, 1)))
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range r.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, n := range names {
		fmt.Fprintf(stdout, "# %-34s %14.6g %s\n", n, r.values[n], unitOf[n])
	}

	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := r.values[d.name]
		switch {
		case !ok && !r.trace:
			r.attempted++
			r.failed++
			r.problems = append(r.problems, "end-to-end metric "+d.name+" was not measured")
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.attempted++
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", d.name, v))
			v = 0
		}
		metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if r.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed or mismatched:\n  %s\n",
			r.failed, r.attempted, strings.Join(r.problems, "\n  "))
	}
	fmt.Fprintln(stdout, string(line))
	if r.failed > 0 {
		return 1
	}
	return 0
}
