// Package perfcost is the performance/cost design-space engine of the
// paper's Section 5: it evaluates configurations XwY(Z:n) — X buses, 2X
// FPUs of width Y, Z registers in n partitions — under a technology's area
// budget, with the cycle time set by the register file access time and the
// FPU latencies adapted to the cycle time.
//
// For each configuration the engine:
//
//  1. prices the FPUs + register file (area package) and discards
//     configurations over the budget (Table 5);
//  2. derives the relative cycle time Tc from the access-time model
//     (timing package) and selects the z = ceil(4/Tc) cycle model
//     (Table 6);
//  3. width-transforms every workbench loop (widen), software-pipelines it
//     under the register file size with spill insertion (sched, spill),
//     and accumulates trips x II / width machine cycles;
//  4. reports time = cycles x Tc, comparable across configurations; the
//     Section 5 baseline is 1w1(32:1) under the 4-cycles model.
//
// Schedule results are cached by (config, registers, cycle model) — the
// partition count affects only the cycle time — and the workbench is
// evaluated on all CPUs.
package perfcost

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/area"
	"repro/internal/ddg"
	"repro/internal/exact"
	"repro/internal/machine"
	"repro/internal/resultcache"
	"repro/internal/sched"
	"repro/internal/spill"
	"repro/internal/sweep"
	"repro/internal/timing"
	"repro/internal/widen"
	"repro/internal/workload"
)

// Engine evaluates configurations over a fixed workbench. All entry points
// are safe for concurrent use: the sweep orchestrator hammers one engine
// from many goroutines, and the singleflight caches guarantee each unique
// (config, registers, cycle model) cell is scheduled exactly once.
// Scheduling scratch is drawn from a process-wide workspace pool, so even
// a freshly built engine (or one rebuilt after cache eviction) reuses the
// arenas warmed by its predecessors.
type Engine struct {
	loops []*ddg.Loop
	// workload names the scenario the loops came from ("" for engines
	// built from a bare loop slice).
	workload string
	timing   timing.Model
	budget   float64
	spill    *spill.Options
	// workers bounds scheduling parallelism (defaults to GOMAXPROCS).
	workers int
	// sem bounds loop-level scheduling work engine-wide, so concurrent
	// suites share the machine instead of multiplying goroutines.
	sem chan struct{}

	widened *sweep.Flight[int, []*ddg.Loop]
	suites  *sweep.Flight[suiteKey, SuiteResult]
	peak    *sweep.Flight[peakKey, float64]

	// cache is the optional persistent layer under the in-memory
	// singleflight: suite and peak cells are looked up on disk before
	// computing and written back after. nil disables persistence.
	cache *resultcache.Store
	// fp memoizes Fingerprint (the canonical content hash the disk keys
	// derive from); "" after fpOnce means persistence is impossible
	// (unhashable spill options) and the disk layer stays off.
	fpOnce sync.Once
	fp     string

	// backend selects the scheduling backend: the default heuristic
	// pipeline, or exact refinement of small loops (see SetBackend).
	backend     Backend
	exactBudget int
	exactMaxOps int

	widenComputes atomic.Int64
	suiteComputes atomic.Int64
	peakComputes  atomic.Int64
	diskHits      atomic.Int64
	diskMisses    atomic.Int64
}

// Backend selects the scheduling implementation behind suite cells.
type Backend int

const (
	// BackendHeuristic is the production pipeline: HRMS-ordered modulo
	// scheduling with spill insertion and Rau end-fit allocation.
	BackendHeuristic Backend = iota
	// BackendExact additionally runs the branch-and-bound exact solver on
	// small loops and keeps its schedule when it is strictly better than
	// the heuristic one and its register packing fits the register file.
	// The exact solver never degrades a cell: exhausted budgets fall back
	// to the heuristic result.
	BackendExact
)

func (b Backend) String() string {
	if b == BackendExact {
		return "exact"
	}
	return "heuristic"
}

type suiteKey struct {
	buses, width, regs, z int
}

type peakKey struct {
	buses, width, z int
}

// Options configures an Engine.
type Options struct {
	// Timing overrides the access-time model (default timing.Default).
	Timing *timing.Model
	// Budget is the die fraction for FPUs + RF (default area.DefaultBudget).
	Budget float64
	// Spill tunes the register-constrained scheduler.
	Spill *spill.Options
	// Workers bounds parallelism (default GOMAXPROCS).
	Workers int
	// Cache attaches a persistent content-addressed result store: suite
	// and peak cells are rehydrated from disk across processes (see
	// resultcache). The serving layer shares one store across all its
	// engines; keys derive from the engine's Fingerprint, so engines over
	// different workloads never mix cells.
	Cache *resultcache.Store
	// CacheDir is the convenience form of Cache: New opens a store rooted
	// there. An open failure disables persistence rather than failing
	// construction (the engine computes correctly without it); callers
	// that must surface the error open the store themselves and set Cache.
	CacheDir string
	// Backend selects the scheduling backend (default BackendHeuristic).
	Backend Backend
	// ExactNodeBudget and ExactMaxOps tune BackendExact (defaults
	// exact.DefaultNodeBudget / exact.DefaultMaxOps); ignored on the
	// heuristic backend.
	ExactNodeBudget int
	ExactMaxOps     int
}

// New builds an engine over the given workbench.
func New(loops []*ddg.Loop, opts *Options) *Engine {
	e := &Engine{
		loops:   loops,
		timing:  timing.Default,
		budget:  area.DefaultBudget,
		workers: runtime.GOMAXPROCS(0),
		widened: sweep.NewFlight[int, []*ddg.Loop](),
		suites:  sweep.NewFlight[suiteKey, SuiteResult](),
		peak:    sweep.NewFlight[peakKey, float64](),
	}
	if opts != nil {
		if opts.Timing != nil {
			e.timing = *opts.Timing
		}
		if opts.Budget != 0 {
			e.budget = opts.Budget
		}
		e.spill = opts.Spill
		if opts.Workers > 0 {
			e.workers = opts.Workers
		}
		e.cache = opts.Cache
		if e.cache == nil && opts.CacheDir != "" {
			e.cache, _ = resultcache.Open(opts.CacheDir)
		}
		e.SetBackend(opts.Backend, opts.ExactNodeBudget, opts.ExactMaxOps)
	}
	e.sem = make(chan struct{}, e.workers)
	return e
}

// Stats is a snapshot of the engine's unique computation counts. Duplicate
// concurrent requests coalesce on the singleflight caches and do not
// increment the counters.
type Stats struct {
	// WidenComputes counts width transformations of the whole workbench.
	WidenComputes int64
	// SuiteComputes counts full register-constrained suite schedules.
	SuiteComputes int64
	// PeakComputes counts ILP-limit sweeps.
	PeakComputes int64
	// DiskHits and DiskMisses count persistent-cache lookups for suite
	// and peak cells (both zero when no cache is attached). A cell served
	// from disk increments DiskHits and no compute counter: a fully warm
	// cache run shows zero computes.
	DiskHits   int64
	DiskMisses int64
}

// Stats returns the engine's computation counters.
func (e *Engine) Stats() Stats {
	return Stats{
		WidenComputes: e.widenComputes.Load(),
		SuiteComputes: e.suiteComputes.Load(),
		PeakComputes:  e.peakComputes.Load(),
		DiskHits:      e.diskHits.Load(),
		DiskMisses:    e.diskMisses.Load(),
	}
}

// AttachCache attaches a persistent result store after construction (the
// CLI path, where the engine is built behind the experiments context).
// It must be called before the engine serves any request: the disk layer
// is consulted under the singleflight, and attaching mid-traffic would
// race those reads.
func (e *Engine) AttachCache(store *resultcache.Store) { e.cache = store }

// SetBackend selects the scheduling backend after construction (the CLI
// path). Like AttachCache it must be called before the engine serves any
// request: the backend participates in every suite cell and in the
// persistent-cache fingerprint. nodeBudget and maxOps <= 0 pick the exact
// package defaults; both are ignored on the heuristic backend.
func (e *Engine) SetBackend(b Backend, nodeBudget, maxOps int) {
	e.backend = b
	if nodeBudget <= 0 {
		nodeBudget = exact.DefaultNodeBudget
	}
	if maxOps <= 0 {
		maxOps = exact.DefaultMaxOps
	}
	e.exactBudget = nodeBudget
	e.exactMaxOps = maxOps
}

// Backend returns the engine's scheduling backend.
func (e *Engine) Backend() Backend { return e.backend }

// Cache returns the attached persistent store (nil when persistence is
// off).
func (e *Engine) Cache() *resultcache.Store { return e.cache }

// cacheVersion is the result-schema epoch baked into every persistent
// key: any change to scheduling, spilling, widening or cost semantics
// that can alter a cached number must bump it, stranding all previously
// persisted cells instead of serving them.
const cacheVersion = "perfcost-v1"

// Fingerprint returns the engine's canonical content hash: the result-
// schema epoch, the spill options, and the loop-IR of the whole
// workbench. Two engines with equal fingerprints compute identical suite
// and peak cells, so the persistent cache keys on it. It returns "" when
// the inputs cannot be hashed (a custom spill ordering function), which
// disables persistence for the engine.
func (e *Engine) Fingerprint() string {
	e.fpOnce.Do(func() {
		if e.spill != nil && e.spill.Order != nil {
			return // unhashable: results depend on an arbitrary function
		}
		h := sha256.New()
		fmt.Fprintf(h, "%s\n", cacheVersion)
		if e.spill != nil {
			fmt.Fprintf(h, "spill:%d:%d:%d\n", e.spill.Strategy, e.spill.MaxRounds, e.spill.MaxIIGrowth)
		}
		// Backend line only when non-default, so every previously
		// persisted heuristic cell keeps its key.
		if e.backend != BackendHeuristic {
			fmt.Fprintf(h, "backend:%d:%d:%d\n", e.backend, e.exactBudget, e.exactMaxOps)
		}
		var n [8]byte
		for _, l := range e.loops {
			buf, err := ddg.EncodeJSON(l)
			if err != nil {
				return
			}
			binary.LittleEndian.PutUint64(n[:], uint64(len(buf)))
			h.Write(n[:])
			h.Write(buf)
		}
		e.fp = hex.EncodeToString(h.Sum(nil))
	})
	return e.fp
}

// cellKey derives the persistent key for one cell in a domain ("suite"
// or "peak"), or ok=false when persistence is off for this engine.
func (e *Engine) cellKey(domain string, a, b, c, d int) (string, bool) {
	if e.cache == nil {
		return "", false
	}
	fp := e.Fingerprint()
	if fp == "" {
		return "", false
	}
	return resultcache.Sum(domain, fp, fmt.Sprintf("%d.%d.%d.%d", a, b, c, d)), true
}

// cacheLoad reads and decodes one cell, deleting entries that pass their
// checksum but no longer decode (schema drift the epoch failed to
// catch). out must be a pointer.
func (e *Engine) cacheLoad(key string, out any) bool {
	data, ok := e.cache.Get(key)
	if !ok {
		e.diskMisses.Add(1)
		return false
	}
	if err := json.Unmarshal(data, out); err != nil {
		e.cache.Delete(key)
		e.diskMisses.Add(1)
		return false
	}
	e.diskHits.Add(1)
	return true
}

// cacheStore encodes and writes one cell. Write failures are ignored:
// persistence is an accelerator, never a correctness dependency.
func (e *Engine) cacheStore(key string, v any) {
	if data, err := json.Marshal(v); err == nil {
		e.cache.Put(key, data)
	}
}

// MemEstimate returns a cheap proxy for the engine's resident footprint in
// op units: the workbench's total operation count, multiplied by one plus
// the number of width transforms the widened cache holds (each cached
// width keeps a comparably sized transformed suite alive). Serving-layer
// budgets are denominated in these units; the estimate grows as queries
// warm the caches.
func (e *Engine) MemEstimate() int64 {
	var ops int64
	for _, l := range e.loops {
		ops += int64(l.NumOps())
	}
	return ops * int64(1+e.widened.Len())
}

// NewFromWorkload builds an engine over a workload's loop suite; the
// engine remembers the scenario name for reports. Caches key on the
// engine, so two engines over different workloads never mix schedules.
func NewFromWorkload(w *workload.Workload, opts *Options) *Engine {
	e := New(w.Loops, opts)
	e.workload = w.Name
	return e
}

// NewDefault builds an engine over the calibrated default workbench.
func NewDefault() (*Engine, error) {
	w, err := workload.Get(workload.Default)
	if err != nil {
		return nil, err
	}
	return NewFromWorkload(w, nil), nil
}

// Loops returns the engine's workbench.
func (e *Engine) Loops() []*ddg.Loop { return e.loops }

// WorkloadName returns the scenario the engine's workbench came from, or
// "" for engines built from a bare loop slice.
func (e *Engine) WorkloadName() string { return e.workload }

// Budget returns the area budget fraction.
func (e *Engine) Budget() float64 { return e.budget }

// Timing returns the access-time model in use.
func (e *Engine) Timing() timing.Model { return e.timing }

// eachLoop runs fn(i) for i in [0, n) with every call holding one slot of
// the engine-wide scheduling semaphore, so concurrent suites, peak sweeps
// and widen transforms together never exceed e.workers loop-level tasks.
// fn must not acquire the semaphore itself.
func (e *Engine) eachLoop(n int, fn func(i int)) {
	if e.workers == 1 {
		// Sequential fast path: a single-worker engine can never overlap
		// loop tasks, so the goroutine spawn + WaitGroup round-trip per
		// loop is pure overhead (every suite on a one-core host pays it
		// thousands of times). Each call still holds a semaphore slot so
		// concurrent suites keep the engine-wide bound.
		for i := 0; i < n; i++ {
			e.sem <- struct{}{}
			fn(i)
			<-e.sem
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		e.sem <- struct{}{}
		go func(i int) {
			defer func() { <-e.sem; wg.Done() }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// widenedLoops returns the workbench transformed for a width. The first
// caller computes the transforms in parallel; concurrent callers for the
// same width coalesce onto that computation.
func (e *Engine) widenedLoops(width int) []*ddg.Loop {
	return e.widened.Do(width, func() []*ddg.Loop {
		e.widenComputes.Add(1)
		out := make([]*ddg.Loop, len(e.loops))
		e.eachLoop(len(e.loops), func(i int) {
			out[i], _ = widen.Transform(e.loops[i], width)
		})
		return out
	})
}

// SuiteResult aggregates register-constrained scheduling over the
// workbench for one (configuration, register file size, cycle model).
type SuiteResult struct {
	// OK is false when more than one percent of the workbench cannot be
	// software-pipelined within the register file (the paper's 8w1 32-RF
	// case). Isolated stragglers (at most 1%) are instead charged their
	// non-pipelined flat-schedule cost — the compiler giving up on
	// pipelining that one loop — and counted in Failures.
	OK bool
	// Failures counts loops that could not be software-pipelined.
	Failures int
	// Cycles is the weighted machine-cycle count: sum over loops of
	// trips x II / width.
	Cycles float64
	// SpilledLoops counts loops that needed spill code.
	SpilledLoops int
	// SpillOps counts inserted spill stores and loads.
	SpillOps int
	// ExactRefined counts loops whose cost came from the exact backend
	// finding a strictly better schedule that still fits the register
	// file. Always 0 on the heuristic backend.
	ExactRefined int
}

// SuiteCycles schedules the whole workbench on XwY with the given register
// file size under a cycle model, with spill insertion. Results are cached
// with singleflight semantics: a duplicate cell arriving on two goroutines
// waits for the first computation instead of recomputing the schedule.
func (e *Engine) SuiteCycles(c machine.Config, regs int, model machine.CycleModel) SuiteResult {
	key := suiteKey{c.Buses, c.Width, regs, model.Z}
	return e.suites.Do(key, func() SuiteResult {
		// Disk layer under the singleflight: at most one goroutine per
		// cell reads or writes the persistent store.
		dk, persist := e.cellKey("suite", key.buses, key.width, key.regs, key.z)
		if persist {
			var r SuiteResult
			if e.cacheLoad(dk, &r) {
				return r
			}
		}
		r := e.computeSuite(c, regs, model)
		if persist {
			e.cacheStore(dk, r)
		}
		return r
	})
}

func (e *Engine) computeSuite(c machine.Config, regs int, model machine.CycleModel) SuiteResult {
	e.suiteComputes.Add(1)
	loops := e.widenedLoops(c.Width)
	m := machine.New(c, regs, model)

	type partial struct {
		cycles   float64
		failed   bool
		spilled  bool
		spillOps int
		exact    bool
	}
	parts := make([]partial, len(loops))
	e.eachLoop(len(loops), func(i int) {
		// Scheduling scratch comes from the process-wide pool: the shared
		// spill options are copied per task so each worker can attach its
		// own workspace without racing the other goroutines (or mutating
		// options the caller still owns).
		ws := sched.AcquireWorkspace()
		defer sched.ReleaseWorkspace(ws)
		so := spill.Options{}
		if e.spill != nil {
			so = *e.spill
		}
		so.Workspace = ws
		// Only the II and the spill counts feed the cell: Fit skips the
		// exact register search Schedule would run for Result.Regs.
		r, err := spill.Fit(loops[i], m, &so)
		if err != nil || !r.OK {
			// Charge the loop its non-pipelined cost: one flat
			// schedule span per (unrolled) iteration. Registers at
			// the flat schedule are not re-checked — the abstraction
			// here is "the compiler emits unpipelined code".
			parts[i].failed = true
			if flat, ferr := sched.ModuloSchedule(loops[i],
				machine.New(c, 1<<20, model),
				&sched.Options{Workspace: ws}); ferr == nil {
				parts[i].cycles = float64(e.loops[i].Trips) *
					float64(flat.Length()) / float64(c.Width)
			}
			return
		}
		parts[i].cycles = float64(e.loops[i].Trips) * float64(r.II()) / float64(c.Width)
		parts[i].spilled = r.SpillStores+r.SpillLoads > 0
		parts[i].spillOps = r.SpillStores + r.SpillLoads
		if e.backend == BackendExact && loops[i].NumOps() <= e.exactMaxOps {
			// Exact refinement is accepted only when it is a strictly
			// better feasible schedule whose register packing fits the
			// file without spilling — it can never make a cell worse.
			eo := exact.Options{NodeBudget: e.exactBudget, MaxOps: e.exactMaxOps, Workspace: ws}
			if er, xerr := exact.Solve(loops[i], m, &eo); xerr == nil &&
				er.II < r.II() && er.MinRegs <= m.RF.Regs {
				parts[i].cycles = float64(e.loops[i].Trips) * float64(er.II) / float64(c.Width)
				parts[i].spilled = false
				parts[i].spillOps = 0
				parts[i].exact = true
			}
		}
	})

	// Accumulate in loop order so the totals are bit-identical no matter
	// how the parallel schedule interleaved.
	res := SuiteResult{}
	for _, p := range parts {
		res.Cycles += p.cycles
		if p.failed {
			res.Failures++
			continue
		}
		if p.spilled {
			res.SpilledLoops++
		}
		res.SpillOps += p.spillOps
		if p.exact {
			res.ExactRefined++
		}
	}
	// Isolated stragglers ride on the flat-schedule fallback; a point
	// where pipelining fails broadly is reported unschedulable.
	res.OK = res.Failures*100 <= len(loops)
	return res
}

// PeakCycles returns the weighted MII-bound cycle count of the workbench
// on XwY under a cycle model with perfect scheduling and infinite
// registers — the Section 3.1 ILP limit.
func (e *Engine) PeakCycles(c machine.Config, model machine.CycleModel) float64 {
	key := peakKey{c.Buses, c.Width, model.Z}
	return e.peak.Do(key, func() float64 {
		dk, persist := e.cellKey("peak", key.buses, key.width, key.z, 0)
		if persist {
			var v float64
			if e.cacheLoad(dk, &v) {
				return v
			}
		}
		e.peakComputes.Add(1)
		loops := e.widenedLoops(c.Width)
		cycles := make([]float64, len(loops))
		e.eachLoop(len(loops), func(i int) {
			ii := loops[i].MII(model, c.Buses, c.FPUs())
			cycles[i] = float64(e.loops[i].Trips) * float64(ii) / float64(c.Width)
		})
		// Sum in loop order for bit-identical totals.
		var total float64
		for _, v := range cycles {
			total += v
		}
		if persist {
			e.cacheStore(dk, total)
		}
		return total
	})
}

// PeakSpeedups evaluates the Figure 2 metric for a whole panel of
// configurations concurrently, in submission order.
func (e *Engine) PeakSpeedups(configs []machine.Config) []float64 {
	return sweep.Map(e.workers, configs, e.PeakSpeedup)
}

// PeakSpeedup returns the Figure 2 metric: the ILP-limit speed-up of XwY
// over 1w1 under the 4-cycles model.
func (e *Engine) PeakSpeedup(c machine.Config) float64 {
	base := e.PeakCycles(machine.Config{Buses: 1, Width: 1}, machine.FourCycle)
	return base / e.PeakCycles(c, machine.FourCycle)
}

// Point is one evaluated design: a configuration with a register file size
// and partitioning, priced and timed for the Section 5 study.
type Point struct {
	Config     machine.Config
	Regs       int
	Partitions int
	// Tc is the relative cycle time (1w1 32-RF = 1).
	Tc float64
	// Z is the selected cycle model.
	Z int
	// Cycles is the weighted machine-cycle count (with spill effects).
	Cycles float64
	// Time is Cycles x Tc: the comparable execution time.
	Time float64
	// Area is the FPU + RF area in λ².
	Area float64
	// OK is false when some loops cannot be scheduled at this register
	// file size.
	OK bool
	// Failures, SpilledLoops and SpillOps carry the suite diagnostics.
	Failures     int
	SpilledLoops int
	SpillOps     int
}

// Label renders the paper's XwY(Z:n) notation.
func (p Point) Label() string {
	return fmt.Sprintf("%s(%d:%d)", p.Config, p.Regs, p.Partitions)
}

// DieFraction returns the point's share of a technology's die.
func (p Point) DieFraction(tech area.Technology) float64 {
	return p.Area / tech.ChipLambda2
}

// Evaluate prices and times one design point, selecting the cycle model
// from the register file's access time (the Section 5 rule).
func (e *Engine) Evaluate(c machine.Config, regs, partitions int) Point {
	tc := e.timing.Relative(c, regs, partitions)
	return e.EvaluateWithModel(c, regs, partitions, machine.ModelForCycleTime(tc))
}

// EvaluateWithModel prices and times one design point under a forced cycle
// model instead of the one the access time selects — the what-if the
// serving layer exposes as the latency-model knob. Tc still reflects the
// register file, so Time stays comparable with Evaluate's points.
func (e *Engine) EvaluateWithModel(c machine.Config, regs, partitions int, model machine.CycleModel) Point {
	tc := e.timing.Relative(c, regs, partitions)
	suite := e.SuiteCycles(c, regs, model)
	p := Point{
		Config:       c,
		Regs:         regs,
		Partitions:   partitions,
		Tc:           tc,
		Z:            model.Z,
		Cycles:       suite.Cycles,
		Time:         suite.Cycles * tc,
		Area:         area.Total(c, regs, partitions),
		OK:           suite.OK,
		Failures:     suite.Failures,
		SpilledLoops: suite.SpilledLoops,
		SpillOps:     suite.SpillOps,
	}
	return p
}

// EvaluateMany prices and times a whole panel of design cells
// concurrently, returning points in submission order. Overlapping panels
// coalesce on the engine's schedule cache, so each unique cell is
// scheduled exactly once no matter how many drivers request it.
func (e *Engine) EvaluateMany(cells []sweep.Cell) []Point {
	return sweep.Map(e.workers, cells, func(c sweep.Cell) Point {
		return e.Evaluate(c.Config, c.Regs, c.Partitions)
	})
}

// Baseline returns the Section 5 reference point: 1w1(32:1), whose cycle
// time is 1 and whose cycle model is 4-cycles by construction.
func (e *Engine) Baseline() Point {
	return e.Evaluate(machine.Config{Buses: 1, Width: 1}, 32, 1)
}

// Speedup returns the point's speed-up over the Section 5 baseline.
func (e *Engine) Speedup(p Point) float64 {
	if !p.OK || p.Time == 0 {
		return 0
	}
	return e.Baseline().Time / p.Time
}

// Implementable enumerates every design point (configurations up to
// maxFactor, the paper's register file sizes, all valid partitions) that
// fits the engine's area budget in the given technology.
func (e *Engine) Implementable(tech area.Technology, maxFactor int) []Point {
	// Price first (cheap, sequential), then submit the surviving cells as
	// one concurrent batch.
	var cells []sweep.Cell
	for _, c := range sweep.DesignSpace(maxFactor) {
		if area.Implementable(c.Config, c.Regs, c.Partitions, tech, e.budget) {
			cells = append(cells, c)
		}
	}
	return e.EvaluateMany(cells)
}

// TopFive returns the five best implementable design points of a
// technology by execution time (Figure 9), excluding points whose
// workbench does not fully schedule.
func (e *Engine) TopFive(tech area.Technology, maxFactor int) []Point {
	pts := e.Implementable(tech, maxFactor)
	ok := pts[:0]
	for _, p := range pts {
		if p.OK {
			ok = append(ok, p)
		}
	}
	sort.Slice(ok, func(i, j int) bool {
		if ok[i].Time != ok[j].Time {
			return ok[i].Time < ok[j].Time
		}
		return ok[i].Area < ok[j].Area // cheaper wins ties
	})
	if len(ok) > 5 {
		ok = ok[:5]
	}
	return ok
}

// SpillRow is one bar group of Figure 3: a configuration's speed-up per
// register file size under the fixed 4-cycles model, relative to 1w1 with
// 256 registers.
type SpillRow struct {
	Config machine.Config
	// Speedup maps register file size to speed-up; unschedulable entries
	// (the paper's 8w1 32-RF) are absent.
	Speedup map[int]float64
}

// SpillStudy computes Figure 3 for the given configurations. All
// (configuration, register file) suites — the baseline included — are
// scheduled as one concurrent batch before the rows are assembled in
// submission order.
func (e *Engine) SpillStudy(configs []machine.Config) []SpillRow {
	type pair struct {
		cfg  machine.Config
		regs int
	}
	pairs := []pair{{machine.Config{Buses: 1, Width: 1}, 256}}
	for _, c := range configs {
		for _, regs := range machine.RegFileSizes {
			pairs = append(pairs, pair{c, regs})
		}
	}
	sweep.Each(e.workers, len(pairs), func(i int) {
		e.SuiteCycles(pairs[i].cfg, pairs[i].regs, machine.FourCycle)
	})

	base := e.SuiteCycles(machine.Config{Buses: 1, Width: 1}, 256, machine.FourCycle)
	rows := make([]SpillRow, 0, len(configs))
	for _, c := range configs {
		row := SpillRow{Config: c, Speedup: map[int]float64{}}
		for _, regs := range machine.RegFileSizes {
			r := e.SuiteCycles(c, regs, machine.FourCycle)
			if !r.OK {
				continue
			}
			row.Speedup[regs] = base.Cycles / r.Cycles
		}
		rows = append(rows, row)
	}
	return rows
}
