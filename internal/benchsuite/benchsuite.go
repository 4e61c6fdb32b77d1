// Package benchsuite defines the scheduler-path micro-benchmarks shared
// by the repository's `go test -bench` harness (bench_test.go) and the
// `widening bench` subcommand: one definition of each workload keeps the
// committed benchmark trajectory (BENCH_PR2.json) and the test-driven
// numbers measuring the same thing.
//
// Every benchmark reports allocations: the scheduler hot-path work is
// tracked on allocs/op as much as on ns/op.
package benchsuite

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/ddg"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/lifetimes"
	"repro/internal/machine"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Bench is one named micro-benchmark.
type Bench struct {
	Name string
	Fn   func(b *testing.B)
}

// All lists the benchmarks the `widening bench` subcommand runs, in
// execution order.
func All() []Bench {
	return []Bench{
		{"Scheduler", Scheduler},
		{"SchedulerCold", SchedulerCold},
		{"RegisterPressure", RegisterPressure},
		{"Regalloc", Regalloc},
		{"ExactSolverSmall", ExactSolverSmall},
		{"Table5Implementable", Table5Implementable},
		{"Render", Render},
		{"ExportCSV", ExportCSV},
		{"ServeEval", ServeEval},
	}
}

// BenchLoops is the reduced workbench size the artifact benchmarks use
// (the root bench_test.go shares it): large enough to exercise every
// scheduling path, small enough to keep a full bench run in minutes on
// one core.
const BenchLoops = 100

// suiteName selects the workload scenario the benchmarks run over. The
// trajectory files (BENCH_PR*.json) are recorded on the default
// scenario; `widening bench -workload` swaps it to gauge how a scenario
// shifts the hot paths.
var suiteName = workload.Default

// pinned is set the first time any benchmark body consumes suiteName, so
// a late SetWorkload cannot produce one run whose rows mix scenarios.
var pinned bool

// SetWorkload selects the scenario for all subsequent benchmark bodies.
// It must be called before any benchmark body runs (the shared context
// and the per-bench workbenches pin the scenario on first use).
func SetWorkload(name string) error {
	found := false
	for _, n := range workload.Names() {
		if n == name {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("benchsuite: unknown workload %q (have %v)", name, workload.Names())
	}
	if pinned && suiteName != name {
		return fmt.Errorf("benchsuite: workload already pinned to %q by an earlier benchmark run", suiteName)
	}
	suiteName = name
	return nil
}

// Workload returns the scenario the benchmarks are running over.
func Workload() string { return suiteName }

func workbench(b *testing.B, loops int) []*ddg.Loop {
	b.Helper()
	pinned = true
	w, err := workload.Build(suiteName, loops, 0)
	if err != nil {
		b.Fatal(err)
	}
	return w.Loops
}

// Scheduler measures raw modulo-scheduling throughput over the workbench
// on the baseline machine (the hot path every artifact bottoms out in).
// The 40 loops are reused across iterations, so the steady state includes
// ddg.Analysis cache hits — which is also how the engine uses the
// scheduler (the same loop is re-scheduled across register sizes, cycle
// models and spill-pass II retries). SchedulerCold measures the
// first-visit cost.
func Scheduler(b *testing.B) {
	loops := workbench(b, 40)
	m := machine.New(machine.Config{Buses: 2, Width: 1}, 256, machine.FourCycle)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := loops[i%len(loops)]
		if _, err := sched.ModuloSchedule(l, m, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// SchedulerCold is Scheduler with a cold analysis cache on every
// iteration: each call schedules a fresh clone, so the number includes
// the graph analyses and the HRMS order a first-time loop pays. The
// spill pass pays those once per call, on its private clone of the loop;
// its reschedules then reuse the order and probe into workspace storage,
// so they skip both and the result copy this row includes.
func SchedulerCold(b *testing.B) {
	loops := workbench(b, 40)
	m := machine.New(machine.Config{Buses: 2, Width: 1}, 256, machine.FourCycle)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := loops[i%len(loops)].Clone()
		if _, err := sched.ModuloSchedule(l, m, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// RegisterPressure measures lifetime analysis plus allocation throughput
// on scheduled loops.
func RegisterPressure(b *testing.B) {
	loops := workbench(b, 60)
	m := machine.New(machine.Config{Buses: 4, Width: 1}, 1<<20, machine.FourCycle)
	var scheds []*sched.Schedule
	for _, l := range loops {
		s, err := sched.ModuloSchedule(l, m, nil)
		if err != nil {
			b.Fatal(err)
		}
		scheds = append(scheds, s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := scheds[i%len(scheds)]
		set := lifetimes.Compute(s)
		if regalloc.MinRegs(set, regalloc.EndFit) < set.MaxLive() {
			b.Fatal("allocation below MaxLive")
		}
	}
}

// Regalloc measures the register allocator alone: lifetimes are computed
// once in setup, and each iteration runs the exact MinRegs search plus a
// fit probe at every register file size the paper evaluates — the sequence
// spill.Schedule drives per design-space cell. The Search workspace is
// reused across iterations, as the spill pass reuses it across rounds.
func Regalloc(b *testing.B) {
	loops := workbench(b, 60)
	m := machine.New(machine.Config{Buses: 4, Width: 1}, 1<<20, machine.FourCycle)
	var sets []*lifetimes.Set
	for _, l := range loops {
		s, err := sched.ModuloSchedule(l, m, nil)
		if err != nil {
			b.Fatal(err)
		}
		sets = append(sets, lifetimes.Compute(s))
	}
	search := regalloc.NewSearch(sets[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := sets[i%len(sets)]
		search.Reset(set)
		min := search.MinRegs(regalloc.EndFit)
		if min < set.MaxLive() {
			b.Fatal("allocation below MaxLive")
		}
		for _, regs := range machine.RegFileSizes {
			if search.Fits(regs, regalloc.EndFit) && regs < min {
				b.Fatal("fit below the MinRegs minimum")
			}
		}
	}
}

// ExactSolverSmall measures the branch-and-bound exact backend over the
// small loops of the workbench slice — one full Solve per iteration:
// heuristic baseline, II refutation search, exact register packing. This
// is the per-loop cost of the optgap experiment and the exact perfcost
// backend, so its trajectory guards both.
func ExactSolverSmall(b *testing.B) {
	loops := workbench(b, 40)
	var small []*ddg.Loop
	for _, l := range loops {
		if l.NumOps() <= exact.DefaultMaxOps {
			small = append(small, l)
		}
	}
	if len(small) == 0 {
		b.Fatal("no loops within the exact search size on the workbench slice")
	}
	m := machine.New(machine.Config{Buses: 2, Width: 1}, 1<<20, machine.FourCycle)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := small[i%len(small)]
		r, err := exact.Solve(l, m, &exact.Options{NodeBudget: 20_000})
		if err != nil {
			b.Fatal(err)
		}
		if r.II > r.HeurII {
			b.Fatal("exact II above the heuristic incumbent")
		}
	}
}

var (
	ctxOnce sync.Once
	ctx     *experiments.Context
	ctxErr  error
)

// Context returns the process-wide experiments context over the
// BenchLoops workbench of the selected scenario, built once and shared
// by every artifact benchmark (bench_test.go's table/figure benchmarks
// included), so a full bench run pays for workbench synthesis exactly
// once.
func Context() (*experiments.Context, error) {
	ctxOnce.Do(func() {
		pinned = true
		ctx, ctxErr = experiments.NewContextFor(suiteName, BenchLoops, 0)
	})
	return ctx, ctxErr
}

// Table5Implementable regenerates Table 5 (the implementability matrix)
// over the reduced workbench — an end-to-end artifact benchmark whose cost
// is dominated by suite scheduling on the first iteration and by the
// engine's caches afterwards.
func Table5Implementable(b *testing.B) {
	ctx, err := Context()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ctx.Run("table5")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Render()) == 0 {
			b.Fatal("empty render")
		}
	}
}

// Render measures pure artifact rendering: the computed Table 5 result is
// fixed in setup and each iteration re-renders it, isolating the textplot
// arena path from the engine caches Table5Implementable also exercises.
func Render(b *testing.B) {
	ctx, err := Context()
	if err != nil {
		b.Fatal(err)
	}
	res, err := ctx.Run("table5")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(res.Render()) == 0 {
			b.Fatal("empty render")
		}
	}
}

// ExportCSV measures the tabular export path (Table() cell
// materialisation plus CSV encoding) over the fixed Table 5 result.
func ExportCSV(b *testing.B) {
	ctx, err := Context()
	if err != nil {
		b.Fatal(err)
	}
	res, err := ctx.Run("table5")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sweep.WriteCSV(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
}

// ServeEval measures one warm /v1/eval request end to end — routing,
// engine lookup, the cached cell evaluation and the JSON response — the
// steady-state unit of serve traffic once an engine is hot.
func ServeEval(b *testing.B) {
	pinned = true
	srv, err := serve.New(serve.Options{Loops: BenchLoops, Preload: []string{suiteName}})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	target := "/v1/eval?config=2w2&regs=64&workload=" + suiteName
	// Prime the cell so iterations measure the request path, not one
	// scheduling run amortised over b.N.
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("eval returned HTTP %d: %s", rec.Code, rec.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("eval returned HTTP %d", rec.Code)
		}
	}
}
