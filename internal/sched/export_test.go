package sched

import (
	"fmt"
	"slices"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/mrt"
)

// HRMSOrderInto exposes the workspace path of the HRMS ordering to the
// external differential tests.
func HRMSOrderInto(l *ddg.Loop, model machine.CycleModel, ws *Workspace) []int {
	return hrmsOrder(l, model, ws)
}

// CheckVictims installs a check on every forced placement of every
// scheduling call until restore runs: it recomputes the resource victims
// with the retained per-unit scan (refVictims) and calls report with nil
// when the slot-owner search chose the same unit and the same victim set,
// or with an error describing the difference. multiUnit marks the
// reservations wider than the II, which evict the whole class.
func CheckVictims(report func(multiUnit bool, err error)) (restore func()) {
	victimCheck = func(p *placer, v, tf, bestUnit int) {
		wantUnit, want := refVictims(p, v, tf)
		got := slices.Clone(p.victims)
		slices.Sort(got)
		if bestUnit != wantUnit || !slices.Equal(got, want) {
			report(wantUnit < 0, fmt.Errorf("loop %q II %d: forcing op %d at %d: unit %d victims %v, reference unit %d victims %v",
				p.l.Name, p.table.II(), v, tf, bestUnit, got, wantUnit, want))
			return
		}
		report(wantUnit < 0, nil)
	}
	return func() { victimCheck = nil }
}

// refVictims is the eviction search the slot-owner table replaced: a
// per-unit list of the placed operations holding a span on that unit
// (unitOps), scanned for reservations that touch the forced window. It
// returns the chosen unit (-1 for a multi-unit reservation, which evicts
// every operation of the class) and the sorted distinct victims.
func refVictims(p *placer, v, tf int) (unit int, victims []int) {
	ii := p.table.II()
	op := p.l.Ops[v]
	occ := p.model.Occupancy(op.Kind)
	class := classOf(op.Kind)

	unitOps := make([][]int, p.table.Units(class))
	for w := range p.l.Ops {
		if !p.placed[w] || p.res[w].Class != class {
			continue
		}
		for _, sp := range p.res[w].Spans {
			unitOps[sp.Unit] = append(unitOps[sp.Unit], w)
		}
	}

	unit = -1
	if occ <= ii {
		row := mod(tf, ii)
		bestCount := inf
		for u := range unitOps {
			cnt := 0
			for _, w := range unitOps[u] {
				if w != v && reservationTouchesUnit(p.res[w], u, row, occ, ii) {
					cnt++
				}
			}
			if cnt < bestCount {
				unit, bestCount = u, cnt
			}
		}
		for _, w := range unitOps[unit] {
			if w != v && reservationTouchesUnit(p.res[w], unit, row, occ, ii) {
				victims = append(victims, w)
			}
		}
	} else {
		for u := range unitOps {
			for _, w := range unitOps[u] {
				if w != v {
					victims = append(victims, w)
				}
			}
		}
	}
	slices.Sort(victims)
	return unit, slices.Compact(victims)
}

// reservationTouchesUnit reports whether any span of r on the given unit
// overlaps the occ rows starting at row (already reduced into [0, ii)).
func reservationTouchesUnit(r mrt.Reservation, unit, row, occ, ii int) bool {
	for _, sp := range r.Spans {
		if sp.Unit != unit {
			continue
		}
		// Rows [a, a+sp.Occ) and [row, row+occ) intersect mod ii iff one
		// start falls within the other interval.
		d := row - mod(sp.Cycle, ii)
		if d < 0 {
			d += ii
		}
		if d < sp.Occ || ii-d < occ {
			return true
		}
	}
	return false
}
