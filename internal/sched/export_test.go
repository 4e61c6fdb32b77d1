package sched

import (
	"repro/internal/ddg"
	"repro/internal/machine"
)

// HRMSOrderInto exposes the workspace path of the HRMS ordering to the
// external differential tests.
func HRMSOrderInto(l *ddg.Loop, model machine.CycleModel, ws *Workspace) []int {
	return hrmsOrder(l, model, ws)
}
