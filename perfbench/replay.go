package main

import (
	"fmt"

	"repro/internal/ddg"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/lifetimes"
	"repro/internal/machine"
	"repro/internal/perfcost"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/spill"
	"repro/internal/timing"
	"repro/internal/widen"
)

const (
	// replayRegs is the register file the replay schedules against.
	replayRegs = 64
	// smallBody splits the replay's scheduler and spill timings by
	// widened body size: at most this many operations is "small".
	smallBody = 24
	// exactMaxOps and exactBudget match the optgap artifact's solver
	// limits.
	exactMaxOps = 10
	exactBudget = 20_000
)

// replayLayers walks the compute pipeline over the workbench of ctx one
// layer call at a time — widen, DDG analysis, modulo scheduling,
// lifetimes, register allocation, spilling and the exact solver — under a
// span per call when tracing. Every schedule and allocation it produces
// must pass its Validate checker. It returns the determinism counts and,
// when tracing, records the per-layer metrics.
func replayLayers(rep *report, ctx *experiments.Context) map[string]string {
	tr := rep.tr
	loops := ctx.Engine.Loops()
	ws := sched.NewWorkspace()
	var c struct {
		opsOut, schedII, mii, regs, maxLive                int
		spillII, spillOps, spillRounds, spillFailed        int
		exactNodes, exactExhausted, exactSolved, validated int
	}
	var bad []error
	fail := func(format string, args ...any) { bad = append(bad, fmt.Errorf(format, args...)) }
	class := func(l *ddg.Loop) string {
		if l.NumOps() <= smallBody {
			return ".small"
		}
		return ".large"
	}

	configs := machine.ConfigsUpToFactor(8)
	for width := 1; width <= 8; width *= 2 {
		for li, src := range loops {
			sp := tr.begin("widen.Transform", 0, 0)
			wl, _ := widen.Transform(src, width)
			tr.end(sp)
			c.opsOut += wl.NumOps()

			clone := wl.Clone()
			sp = tr.begin("ddg.Analysis", 0, 0)
			a := clone.Analysis()
			err := a.Validate()
			a.SCCs()
			a.RecPrio(machine.FourCycle)
			a.ALAP(machine.FourCycle)
			tr.end(sp)
			if err != nil {
				fail("loop %d width %d: analysis: %v", li, width, err)
				continue
			}

			for _, cfg := range configs {
				if cfg.Width != width {
					continue
				}
				model := machine.ModelForCycleTime(timing.Default.Relative(cfg, replayRegs, 1))
				m := machine.New(cfg, replayRegs, model)

				sp = tr.begin("sched.ModuloSchedule"+class(wl), 0, 0)
				s, err := sched.ModuloSchedule(wl, m, &sched.Options{Workspace: ws})
				tr.end(sp)
				if err != nil {
					fail("loop %d on %s: schedule: %v", li, cfg, err)
					continue
				}
				if err := s.Validate(); err != nil {
					fail("loop %d on %s: %v", li, cfg, err)
				}
				c.schedII += s.II
				c.mii += wl.MII(model, cfg.Buses, cfg.FPUs())

				sp = tr.begin("lifetimes.Compute", 0, 0)
				set := lifetimes.Compute(s)
				tr.end(sp)
				sp = tr.begin("regalloc.MinRegs", 0, 0)
				search := regalloc.NewSearch(set)
				regs := search.MinRegs(regalloc.EndFit)
				tr.end(sp)
				c.regs += regs
				c.maxLive += search.MaxLive()
				if err := validAllocation(set, regs); err != nil {
					fail("loop %d on %s: %v", li, cfg, err)
				}

				sp = tr.begin("spill.Schedule"+class(wl), 0, 0)
				res, err := spill.Schedule(wl, m, &spill.Options{Workspace: ws})
				tr.end(sp)
				if err != nil || !res.OK {
					c.spillFailed++
					continue
				}
				if err := res.Sched.Validate(); err != nil {
					fail("loop %d on %s: spilled schedule: %v", li, cfg, err)
				}
				if err := validAllocation(lifetimes.Compute(res.Sched), res.Regs); err != nil {
					fail("loop %d on %s: spilled schedule: %v", li, cfg, err)
				}
				c.validated += 2
				c.spillII += res.II()
				c.spillOps += res.SpillStores + res.SpillLoads
				c.spillRounds += res.Rounds
			}
		}
	}

	optgap := machine.New(machine.Config{Buses: 2, Width: 1}, 1<<20, machine.FourCycle)
	for li, l := range loops {
		if l.NumOps() > exactMaxOps {
			continue
		}
		sp := tr.begin("exact.Solve", 0, 0)
		r, err := exact.Solve(l, optgap, &exact.Options{NodeBudget: exactBudget, MaxOps: exactMaxOps, Workspace: ws})
		tr.end(sp)
		if err != nil {
			fail("loop %d: exact: %v", li, err)
			continue
		}
		if err := r.Sched.Validate(); err != nil {
			fail("loop %d: exact schedule: %v", li, err)
		}
		if r.II > r.HeurII {
			fail("loop %d: exact II %d > heuristic II %d", li, r.II, r.HeurII)
		}
		c.exactSolved++
		c.exactNodes += r.Nodes
		if r.Exhausted {
			c.exactExhausted++
		}
	}
	for _, err := range bad {
		rep.check("replay", err)
	}
	rep.notef("# replay validated %d schedules and their allocations", c.validated)

	if tr != nil {
		all := func(name string) []string { return []string{name + ".small", name + ".large"} }
		rep.set("widen.transform_ms", ms(tr.total("widen.Transform")))
		rep.set("widen.ops_out", float64(c.opsOut))
		rep.set("ddg.analysis_ms", ms(tr.total("ddg.Analysis")))
		sched := usOf(tr.durations(all("sched.ModuloSchedule")...))
		rep.set("sched.modulo_schedule_us_p50", median(sched))
		rep.set("sched.modulo_schedule_us_p99", quantile(sched, 0.99))
		rep.set("sched.small_us_p50", median(usOf(tr.durations("sched.ModuloSchedule.small"))))
		rep.set("sched.large_us_p50", median(usOf(tr.durations("sched.ModuloSchedule.large"))))
		rep.set("sched.ii_over_mii", float64(c.schedII)/float64(max(c.mii, 1)))
		rep.set("lifetimes.compute_ms", ms(tr.total("lifetimes.Compute")))
		rep.set("regalloc.minregs_ms", ms(tr.total("regalloc.MinRegs")))
		rep.set("regalloc.regs_over_maxlive", float64(c.regs)/float64(max(c.maxLive, 1)))
		rep.set("spill.schedule_ms", ms(tr.total(all("spill.Schedule")...)))
		rep.set("spill.small_ms", ms(tr.total("spill.Schedule.small")))
		rep.set("spill.large_ms", ms(tr.total("spill.Schedule.large")))
		rep.set("spill.rounds", float64(c.spillRounds))
		rep.set("spill.ops", float64(c.spillOps))
		rep.set("spill.failed", float64(c.spillFailed))
		rep.set("exact.solve_ms", ms(tr.total("exact.Solve")))
		rep.set("exact.nodes", float64(c.exactNodes))
		rep.set("exact.exhausted", float64(c.exactExhausted))

		// One suite cell on a fresh engine each, widening included.
		w := ctx.Workload
		for _, cfg := range suiteCells {
			eng := perfcost.NewFromWorkload(w, nil)
			sp := tr.begin("perfcost.SuiteCycles", 0, 0)
			eng.SuiteCycles(cfg, replayRegs, machine.FourCycle)
			tr.end(sp)
		}
		rep.set("perfcost.suite_cell_ms", median(msOf(tr.durations("perfcost.SuiteCycles"))))
	}
	return map[string]string{
		"spill.ops":          fmt.Sprint(c.spillOps),
		"spill.ii_sum":       fmt.Sprint(c.spillII),
		"spill.failed":       fmt.Sprint(c.spillFailed),
		"sched.ii_sum":       fmt.Sprint(c.schedII),
		"regalloc.regs_sum":  fmt.Sprint(c.regs),
		"regalloc.live_sum":  fmt.Sprint(c.maxLive),
		"exact.nodes":        fmt.Sprint(c.exactNodes),
		"widen.ops_out":      fmt.Sprint(c.opsOut),
		"exact.solved_loops": fmt.Sprint(c.exactSolved),
	}
}

// validAllocation allocates the lifetimes into regs registers with the
// end-fit strategy and checks the allocation.
func validAllocation(set *lifetimes.Set, regs int) error {
	a, ok := regalloc.TryAllocate(set, regs, regalloc.EndFit)
	if !ok {
		return fmt.Errorf("regalloc: lifetimes do not fit the %d registers the search reported", regs)
	}
	return a.Validate(set)
}
