package ddg_test

import (
	"testing"

	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/machine"
)

// TestRecMIIMatchesMapReference pins the dense-index RecMII against the
// map-based reference: every recurrence component of the default
// workbench, under all four cycle models, must get the same bound, every
// node of it that bound as its RecPrio, and every node outside the
// recurrences RecPrio 0.
func TestRecMIIMatchesMapReference(t *testing.T) {
	loops, err := loopgen.Workbench(loopgen.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	components := 0
	for _, l := range loops {
		for _, model := range machine.CycleModels() {
			a := l.Analysis()
			prio := a.RecPrio(model)
			rec := a.RecurrenceOps()
			wantPrio := make([]int, l.NumOps())
			wantMII := 1
			for _, comp := range a.SCCs() {
				if !rec[comp[0]] {
					continue
				}
				components++
				want := ddg.RefRecMIIOfComponent(l, comp, model)
				for _, v := range comp {
					wantPrio[v] = want
				}
				wantMII = max(wantMII, want)
			}
			for v := range wantPrio {
				if prio[v] != wantPrio[v] {
					t.Fatalf("%s %s: RecPrio[%d] = %d, reference %d", l.Name, model, v, prio[v], wantPrio[v])
				}
			}
			if got := a.RecMII(model); got != wantMII {
				t.Fatalf("%s %s: RecMII = %d, reference %d", l.Name, model, got, wantMII)
			}
		}
	}
	if components == 0 {
		t.Fatal("the workbench has no recurrence components to compare")
	}
	t.Logf("%d recurrence components compared across %d loops", components, len(loops))
}
