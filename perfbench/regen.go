package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/perfcost"
	"repro/internal/resultcache"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// regenIDs are the artifacts one regen-cold operation regenerates;
// rehydrateIDs leave out optgap, whose exact-solver runs bypass the
// store.
var (
	regenIDs     = []string{"fig2", "fig3", "fig8", "optgap"}
	rehydrateIDs = []string{"fig2", "fig3", "fig8"}
)

// regenLoops is the workbench size: the CLI's `-loops 150`.
func regenLoops(o options) int {
	if o.tiny {
		return 12
	}
	return 150
}

// benchWorkbench builds the default scenario at its calibrated seed with
// the loops in an order drawn from the benchmark seed. The seed permutes
// rather than regenerates the suite because the synthetic generator's
// cost is heavy-tailed across its seeds: at 150 loops one seed's
// regeneration takes three times another's, which would swamp any
// change a later commit makes.
func benchWorkbench(o options) (*workload.Workload, error) {
	w, err := workload.Build(workload.Default, regenLoops(o), 0)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(uint64(o.seed), 0x7e9e))
	rng.Shuffle(len(w.Loops), func(i, j int) { w.Loops[i], w.Loops[j] = w.Loops[j], w.Loops[i] })
	return w, nil
}

// newContext builds a context over w with store attached to the engine
// only: the artifact memo stays off, so every artifact is recomputed.
func newContext(o options, w *workload.Workload, store *resultcache.Store) *experiments.Context {
	eng := perfcost.NewFromWorkload(w, &perfcost.Options{Cache: store})
	return experiments.NewContextOver(eng, w, regenLoops(o), 0)
}

// regenOut is one regeneration: the artifacts, a digest of each one's
// render, CSV and JSON export, and the engine and store counters after it.
type regenOut struct {
	ctx     *experiments.Context
	results []experiments.Result
	digest  map[string]string
	dur     time.Duration
	alloc   uint64
	engine  perfcost.Stats
	store   resultcache.Stats
}

// regenerate runs the artifacts on ctx, then renders and exports each one
// — the work of `widening -out DIR fig2 fig3 ...`. With a tracer the
// artifacts run under one span each, over the same concurrent fan-out
// RunMany uses.
func regenerate(ctx *experiments.Context, store *resultcache.Store, ids []string, tr *tracer) (regenOut, error) {
	out := regenOut{ctx: ctx, digest: map[string]string{}}
	before := store.Stats()
	a0, t0 := allocBytes(), time.Now()
	var err error
	if tr == nil {
		out.results, err = ctx.RunMany(ids)
	} else {
		out.results, err = runTraced(ctx, ids, tr)
	}
	if err != nil {
		return out, err
	}
	for _, res := range out.results {
		sp := tr.begin("textplot.Render", 0, 0)
		text := res.Render()
		tr.end(sp)
		var csv bytes.Buffer
		sp = tr.begin("sweep.WriteCSV", 0, 0)
		err := sweep.WriteCSV(&csv, res)
		tr.end(sp)
		if err != nil {
			return out, err
		}
		sp = tr.begin("sweep.MarshalArtifact", 0, 0)
		env, err := sweep.MarshalArtifact(res)
		tr.end(sp)
		if err != nil {
			return out, err
		}
		h := sha256.New()
		for _, part := range [][]byte{[]byte(text), csv.Bytes(), env} {
			fmt.Fprintf(h, "%d:", len(part))
			h.Write(part)
		}
		out.digest[res.ID()] = hex.EncodeToString(h.Sum(nil))
	}
	out.dur, out.alloc = time.Since(t0), allocBytes()-a0
	out.engine = ctx.Engine.Stats()
	after := store.Stats()
	out.store = resultcache.Stats{
		Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Writes: after.Writes - before.Writes, Corrupt: after.Corrupt - before.Corrupt,
		BytesRead: after.BytesRead - before.BytesRead, BytesWritten: after.BytesWritten - before.BytesWritten,
	}
	return out, nil
}

// runTraced is Context.RunMany with a span around each artifact.
func runTraced(ctx *experiments.Context, ids []string, tr *tracer) ([]experiments.Result, error) {
	type outcome struct {
		res experiments.Result
		err error
	}
	root := tr.begin("experiments.RunMany", 0, 0)
	outs := sweep.Map(len(ids), ids, func(id string) outcome {
		sp := tr.begin("experiments."+id, root.id, 0)
		res, err := ctx.Run(id)
		tr.end(sp)
		return outcome{res, err}
	})
	tr.end(root)
	results := make([]experiments.Result, len(outs))
	for i, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		results[i] = o.res
	}
	return results, nil
}

// timedOps is what a timed loop keeps: each operation's duration and
// allocation, and only the newest operation whole, so the live heap
// measures one operation's state whatever the operation count.
type timedOps struct {
	durs, allocs []float64
	last         regenOut
}

// regenLoop repeats op until seconds have passed (at least once), hands
// every outcome to check as it completes, and keeps the timings.
func regenLoop(rep *report, seconds float64, op func() (regenOut, error), check func(regenOut)) (timedOps, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var t timedOps
	for len(t.durs) == 0 || time.Now().Before(deadline) {
		out, err := op()
		rep.op(err)
		if err != nil {
			return t, err
		}
		check(out)
		t.durs = append(t.durs, ms(out.dur))
		t.allocs = append(t.allocs, float64(out.alloc)/1e6)
		t.last = out
	}
	return t, nil
}

// setEndToEnd records the end-to-end metrics of a timed loop. It runs
// while the last operation's context is still reachable, so the live
// heap includes whatever the engine keeps cached.
func setEndToEnd(rep *report, t timedOps) {
	rep.samples(t.durs)
	rep.set("op_p50_ms", median(t.durs))
	rep.set("regen_s", median(t.durs)/1e3)
	rep.set("op_alloc_mb", median(t.allocs))
	rep.set("regen_alloc_mb", median(t.allocs))
	rep.set("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(t.last)
}

// measureRegen runs the timed loop and returns its last operation.
// Untraced runs spend all their time on it; a traced run spends half
// untraced and half traced, and reports the difference of the medians as
// the tracing overhead.
func measureRegen(o options, rep *report, op func(tr *tracer) (regenOut, error), check func(regenOut)) (regenOut, error) {
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	t, err := regenLoop(rep, seconds, func() (regenOut, error) { return op(nil) }, check)
	if err != nil {
		return regenOut{}, err
	}
	setEndToEnd(rep, t)
	if !o.trace {
		return t.last, nil
	}
	t, err = regenLoop(rep, seconds, func() (regenOut, error) { return op(rep.tr) }, check)
	if err != nil {
		return regenOut{}, err
	}
	rep.set("trace.overhead_op_p50_ms", median(t.durs)-rep.values["op_p50_ms"])
	n := float64(len(t.durs))
	for _, id := range regenIDs {
		rep.set("experiments."+id+"_ms", median(msOf(rep.tr.durations("experiments."+id))))
	}
	rep.set("textplot.render_us", us(rep.tr.total("textplot.Render"))/n)
	rep.set("sweep.export_csv_us", us(rep.tr.total("sweep.WriteCSV"))/n)
	rep.set("sweep.marshal_json_us", us(rep.tr.total("sweep.MarshalArtifact"))/n)
	return t.last, nil
}

// setCounters records the engine and store counters of one operation.
func setCounters(rep *report, out regenOut) {
	rep.set("perfcost.suite_computes", float64(out.engine.SuiteComputes))
	rep.set("perfcost.widen_computes", float64(out.engine.WidenComputes))
	rep.set("perfcost.peak_computes", float64(out.engine.PeakComputes))
	rep.set("perfcost.disk_hits", float64(out.engine.DiskHits))
	rep.set("perfcost.disk_misses", float64(out.engine.DiskMisses))
	rep.set("resultcache.hits", float64(out.store.Hits))
	rep.set("resultcache.misses", float64(out.store.Misses))
	rep.set("resultcache.writes", float64(out.store.Writes))
	rep.set("resultcache.bytes_read", float64(out.store.BytesRead))
	rep.set("resultcache.bytes_written", float64(out.store.BytesWritten))
	rep.set("resultcache.corrupt", float64(out.store.Corrupt))
}

// sameDigests reports the first artifact whose digest differs from want.
func sameDigests(want, got map[string]string) error {
	for id, d := range want {
		if g, ok := got[id]; ok && g != d {
			return fmt.Errorf("%s export differs (sha256 %s, want %s)", id, g[:12], d[:12])
		}
	}
	return nil
}

// freshStore opens an empty store in a new directory under work.
func freshStore(work string, n *int) (*resultcache.Store, error) {
	*n++
	return resultcache.Open(filepath.Join(work, fmt.Sprintf("store-%d", *n)))
}

// runRegenCold measures cold regeneration: every operation builds a fresh
// context over the default scenario with an empty store attached to its
// engine and regenerates fig2, fig3, fig8 and optgap.
func runRegenCold(o options, work string, rep *report) error {
	stores := 0
	fresh := func() (*experiments.Context, *resultcache.Store, error) {
		store, err := freshStore(work, &stores)
		if err != nil {
			return nil, nil, err
		}
		w, err := benchWorkbench(o)
		if err != nil {
			return nil, nil, err
		}
		return newContext(o, w, store), store, nil
	}
	// Set-up is timed before every operation, several times, so its
	// samples span the same stretch of the run as the operations' and a
	// burst of host noise at start-up cannot decide the median.
	var setups []float64
	var prev *resultcache.Store
	var first regenOut
	last, err := measureRegen(o, rep, func(tr *tracer) (regenOut, error) {
		var ctx *experiments.Context
		for range 4 {
			if prev != nil {
				os.RemoveAll(prev.Dir())
			}
			t0 := time.Now()
			c, store, err := fresh()
			if err != nil {
				return regenOut{}, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			ctx, prev = c, store
		}
		return regenerate(ctx, prev, regenIDs, tr)
	}, func(out regenOut) {
		if first.digest == nil {
			first = regenOut{digest: out.digest, engine: out.engine}
		}
		rep.check("regeneration repeats the first", sameDigests(first.digest, out.digest))
		rep.check("regeneration suite computes",
			equalInt("perfcost.suite_computes", first.engine.SuiteComputes, out.engine.SuiteComputes))
		rep.check("regeneration leaves the store unread", equalInt("resultcache.hits", 0, out.store.Hits))
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", median(setups))
	setCounters(rep, last)
	rep.check("optgap: exact II <= heuristic II", checkOptgap(last.results))
	rep.check("goldens", checkGoldens(o.goldenDir))

	counts := replayLayers(rep, last.ctx)
	counts["perfcost.suite_computes"] = fmt.Sprint(last.engine.SuiteComputes)
	for id, d := range last.digest {
		counts["digest."+id] = d
	}
	rep.check("determinism counts", persistCounts(o, "regen-cold", last.ctx.Engine.Fingerprint(), counts))
	return nil
}

// runRehydrate measures store rehydration: set-up fills a store once
// cold; every operation then builds a fresh engine over the same
// workbench with the store attached (the artifact memo stays off) and
// regenerates fig2, fig3 and fig8 from it.
func runRehydrate(o options, work string, rep *report) error {
	stores := 0
	w, err := benchWorkbench(o)
	if err != nil {
		return err
	}
	over := func(store *resultcache.Store) *experiments.Context { return newContext(o, w, store) }
	var setups []float64
	var fill map[string]string // the cold fill's digests
	var store *resultcache.Store
	for i := 0; i < 5; i++ {
		if store != nil {
			os.RemoveAll(store.Dir())
		}
		t0 := time.Now()
		if store, err = freshStore(work, &stores); err != nil {
			return err
		}
		out, err := regenerate(over(store), store, rehydrateIDs, nil)
		rep.op(err)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i > 0 {
			rep.check(fmt.Sprintf("cold fill %d repeats cold fill 0", i), sameDigests(fill, out.digest))
		}
		// Keep the digests, not the filled engine: the live heap measures
		// the rehydrated engines only.
		fill = out.digest
	}
	rep.set("setup_s", median(setups))

	last, err := measureRegen(o, rep, func(tr *tracer) (regenOut, error) {
		return regenerate(over(store), store, rehydrateIDs, tr)
	}, func(out regenOut) {
		rep.check("rehydration renders byte-identical to the cold fill", sameDigests(fill, out.digest))
		computes := out.engine.SuiteComputes + out.engine.WidenComputes + out.engine.PeakComputes
		rep.check("rehydration computes nothing", equalInt("engine computes", 0, computes))
	})
	if err != nil {
		return err
	}
	setCounters(rep, last)
	counts := map[string]string{}
	for id, d := range fill {
		counts["digest."+id] = d
	}
	fp := last.ctx.Engine.Fingerprint()
	rep.check("determinism counts", persistCounts(o, "rehydrate", fp, counts))
	// A regen-cold run over the same workbench leaves its digests behind:
	// the rehydrated artifacts must match those too.
	rep.check("renders match regen-cold", persistCounts(o, "regen-cold", fp, counts))
	return nil
}

func equalInt(what string, want, got int64) error {
	if want != got {
		return fmt.Errorf("%s = %d, want %d", what, got, want)
	}
	return nil
}

// checkOptgap asserts the exact solver never loses to the heuristic.
func checkOptgap(results []experiments.Result) error {
	for _, res := range results {
		og, ok := res.(*experiments.OptgapResult)
		if !ok {
			continue
		}
		for _, l := range og.Loops {
			if l.ExactII > l.HeurII {
				return fmt.Errorf("loop %s: exact II %d > heuristic II %d", l.Name, l.ExactII, l.HeurII)
			}
		}
		return nil
	}
	return errors.New("no optgap artifact regenerated")
}

// checkGoldens regenerates table5 and fig8 at the committed golden size
// (60 loops, seed 7) and compares them byte for byte with the goldens.
func checkGoldens(dir string) error {
	ctx, err := experiments.NewContext(60, 7)
	if err != nil {
		return err
	}
	results, err := ctx.RunMany([]string{"table5", "fig8"})
	if err != nil {
		return err
	}
	for _, res := range results {
		want, err := os.ReadFile(filepath.Join(dir, res.ID()+".golden"))
		if err != nil {
			return err
		}
		got := "== " + res.ID() + ": " + res.Title() + "\n" + res.Render()
		if got != string(want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			return fmt.Errorf("%s render differs from %s.golden at byte %d", res.ID(), res.ID(), i)
		}
	}
	return nil
}

// persistCounts compares counts with the ones an earlier run of the named
// workload recorded in the state directory for the same inputs (the
// engine fingerprint of the workbench), and records them when none exist
// yet. Only keys present on both sides are
// compared.
func persistCounts(o options, name, fingerprint string, counts map[string]string) error {
	path := filepath.Join(o.stateDir, fmt.Sprintf("counts-%s-%.16s.json", name, fingerprint))
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if name != o.workload {
			return nil
		}
		data, err := json.MarshalIndent(counts, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return err
	}
	var prev map[string]string
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for k, v := range counts {
		if p, ok := prev[k]; ok && p != v {
			return fmt.Errorf("%s = %s, an earlier run at this seed recorded %s", k, v, p)
		}
	}
	return nil
}

// suiteCells are the cells perfcost.suite_cell_ms times on a fresh engine.
var suiteCells = []machine.Config{{Buses: 1, Width: 1}, {Buses: 2, Width: 2}, {Buses: 4, Width: 2}}
