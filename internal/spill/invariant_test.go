package spill_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/spill"
	"repro/internal/widen"
)

// TestFitMatchesSchedule: Fit is Schedule without the final register
// search, so every field but Regs must agree (Fit leaves Regs 0), for the
// workbench widened onto every configuration up to factor 8 at 32 and 64
// registers. The two calls share one workspace, as the engine's would.
func TestFitMatchesSchedule(t *testing.T) {
	p := loopgen.Defaults()
	p.Loops = 40
	if testing.Short() {
		p.Loops = 12
	}
	loops, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	ws := sched.NewWorkspace()
	spilled := 0
	for _, cfg := range machine.ConfigsUpToFactor(8) {
		for _, regs := range []int{32, 64} {
			m := machine.New(cfg, regs, machine.FourCycle)
			for _, src := range loops {
				l, _ := widen.Transform(src, cfg.Width)
				want, werr := spill.Schedule(l, m, &spill.Options{Workspace: ws})
				got, gerr := spill.Fit(l, m, &spill.Options{Workspace: ws})
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s on %s(%d): Schedule err %v, Fit err %v", src.Name, cfg, regs, werr, gerr)
				}
				if got.Regs != 0 {
					t.Fatalf("%s on %s(%d): Fit reported %d registers", src.Name, cfg, regs, got.Regs)
				}
				if want.OK && want.Regs == 0 {
					t.Fatalf("%s on %s(%d): Schedule fit without a register count", src.Name, cfg, regs)
				}
				if !sameResult(got, want) {
					t.Fatalf("%s on %s(%d): Fit %+v, Schedule %+v", src.Name, cfg, regs, got, want)
				}
				if want.SpillStores > 0 {
					spilled++
				}
			}
		}
	}
	if spilled == 0 {
		t.Fatal("no loop spilled: the spill rounds went unchecked")
	}
}

// sameResult compares two results in every field but Regs: the loops by
// content (each result owns its own clone) and the schedules by their
// placement.
func sameResult(a, b spill.Result) bool {
	if a.OK != b.OK || a.BaseII != b.BaseII || a.Rounds != b.Rounds ||
		a.SpillStores != b.SpillStores || a.SpillLoads != b.SpillLoads ||
		(a.Sched == nil) != (b.Sched == nil) || (a.Loop == nil) != (b.Loop == nil) {
		return false
	}
	if a.Loop != nil && (!reflect.DeepEqual(a.Loop.Ops, b.Loop.Ops) ||
		!reflect.DeepEqual(a.Loop.Edges, b.Loop.Edges)) {
		return false
	}
	if a.Sched == nil {
		return true
	}
	x, y := *a.Sched, *b.Sched
	if !reflect.DeepEqual(x.Loop.Ops, y.Loop.Ops) || !reflect.DeepEqual(x.Loop.Edges, y.Loop.Edges) {
		return false
	}
	x.Loop, y.Loop = nil, nil
	return reflect.DeepEqual(x, y)
}

// TestResultsOutliveWorkspace: a schedule returned by ModuloSchedule,
// spill.Schedule or spill.Fit owns its storage, so later calls on the same
// workspace (which reuse its probe slabs) must leave it deep-equal to a
// copy taken on return and still valid.
func TestResultsOutliveWorkspace(t *testing.T) {
	p := loopgen.Defaults()
	p.Loops = 20
	loops, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	type kept struct {
		what      string
		got, snap *sched.Schedule
	}
	var all []kept
	keep := func(what string, s *sched.Schedule) {
		if s != nil {
			all = append(all, kept{what, s, s.Clone()})
		}
	}
	ws := sched.NewWorkspace()
	// The tight files send some loops through the II-growth fallbacks,
	// whose probes return from a different place than the spill rounds'.
	for _, cfg := range []machine.Config{{Buses: 2, Width: 2}, {Buses: 4, Width: 1},
		{Buses: 8, Width: 1}, {Buses: 1, Width: 8}} {
		for _, regs := range []int{32, 16} {
			m := machine.New(cfg, regs, machine.FourCycle)
			for _, src := range loops {
				l, _ := widen.Transform(src, cfg.Width)
				s, err := sched.ModuloSchedule(l, m, &sched.Options{Workspace: ws})
				if err != nil {
					t.Fatal(err)
				}
				keep(src.Name+" ModuloSchedule", s)
				for _, f := range []struct {
					name string
					run  func(*ddg.Loop, machine.Machine, *spill.Options) (spill.Result, error)
				}{{"Schedule", spill.Schedule}, {"Fit", spill.Fit}} {
					r, err := f.run(l, m, &spill.Options{Workspace: ws})
					if err != nil {
						t.Fatal(err)
					}
					keep(fmt.Sprintf("%s on %s(%d) spill.%s", src.Name, cfg, regs, f.name), r.Sched)
				}
			}
		}
	}
	if len(all) < 2*len(loops) {
		t.Fatalf("kept %d schedules from %d loops", len(all), len(loops))
	}
	for _, k := range all {
		if !reflect.DeepEqual(k.got, k.snap) {
			t.Errorf("%s: schedule changed after later calls on its workspace", k.what)
		}
		if err := k.got.Validate(); err != nil {
			t.Errorf("%s: %v", k.what, err)
		}
	}
}
