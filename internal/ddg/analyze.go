package ddg

import (
	"math"

	"repro/internal/machine"
)

// The analyses below are memoized per loop: each method is a thin wrapper
// over the Analysis cache (see analysis.go), so repeated calls — the
// scheduler's ordering phase, the MII bound, and every spill-pass
// reschedule — pay the graph traversals once. The returned slices and
// maps are owned by the cache and must be treated as read-only.

// SCCs returns the strongly connected components of the dependence graph
// (Tarjan's algorithm, iterative). Components are returned in reverse
// topological order of the condensation (consumers before producers);
// within a component, node order is unspecified but deterministic.
func (l *Loop) SCCs() [][]int { return l.Analysis().SCCs() }

// RecMII returns the recurrence-constrained lower bound on the initiation
// interval under the given cycle model: the maximum over all dependence
// cycles C of ceil(latency(C) / distance(C)). Loops without recurrences
// have RecMII 1. The bound is computed per strongly connected component by
// binary search on II with a positive-cycle feasibility test (an II is
// feasible iff no cycle has total latency > II * total distance).
func (l *Loop) RecMII(model machine.CycleModel) int { return l.Analysis().RecMII(model) }

// recScratch is the Bellman-Ford scratch of recMIIOfComponent, reused by
// every component of one RecPrio computation; dist and edges grow to the
// largest component.
type recScratch struct {
	local []int // node ID -> local index + 1, 0 outside the component; all 0 between calls
	dist  []int // longest-path estimates, by local index
	edges []recEdge
}

// recEdge is a component edge rewritten to local indices.
type recEdge struct {
	from, to, lat, dist int
}

// recMIIOfComponent binary-searches the smallest II for which the component
// has no positive cycle under weights lat(from) - II*dist. The component's
// nodes are indexed densely, so Bellman-Ford runs over slices; succs are
// the loop's per-node outgoing edges.
func (l *Loop) recMIIOfComponent(comp []int, succs [][]Edge, model machine.CycleModel, sc *recScratch) int {
	for i, v := range comp {
		sc.local[v] = i + 1
	}
	edges := sc.edges[:0]
	hi := 1
	for i, v := range comp {
		lat := model.Latency(l.Ops[v].Kind)
		for _, e := range succs[v] {
			if j := sc.local[e.To]; j != 0 {
				edges = append(edges, recEdge{i, j - 1, lat, e.Dist})
				hi += lat
			}
		}
	}
	for _, v := range comp {
		sc.local[v] = 0
	}
	sc.edges = edges
	if len(edges) == 0 {
		return 1
	}
	if cap(sc.dist) < len(comp) {
		sc.dist = make([]int, len(comp))
	}
	dist := sc.dist[:len(comp)]

	// feasible reports whether no cycle has positive weight at this II.
	// Bellman-Ford longest-path with all nodes initialized to 0 (a
	// super-source): a relaxation succeeding on the n-th pass betrays a
	// positive cycle. The verdict does not depend on the edge order.
	feasible := func(ii int) bool {
		clear(dist)
		for pass := 0; pass < len(comp); pass++ {
			changed := false
			for _, e := range edges {
				if d := dist[e.from] + e.lat - ii*e.dist; d > dist[e.to] {
					dist[e.to] = d
					changed = true
				}
			}
			if !changed {
				return true
			}
		}
		// One more pass: any further relaxation means a positive cycle.
		for _, e := range edges {
			if dist[e.from]+e.lat-ii*e.dist > dist[e.to] {
				return false
			}
		}
		return true
	}

	lo := 1
	for lo < hi {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// ResMII returns the resource-constrained lower bound on the initiation
// interval for a machine with the given bus and FPU counts: the most
// heavily used resource class determines the bound. Non-pipelined
// operations (div, sqrt) occupy a unit for their full latency; successive
// iterations' instances round-robin across the replicated units (the
// reservation table models this with multi-unit reservations), so the
// bound is purely slot-count based. A single non-pipelined operation on a
// single unit still needs its full occupancy within one II, which the
// ceiling division captures.
func (l *Loop) ResMII(model machine.CycleModel, buses, fpus int) int {
	return l.Analysis().ResMII(model, buses, fpus)
}

// MII returns max(ResMII, RecMII): the lower bound on the initiation
// interval (the "perfect schedule" performance of Section 3.1).
func (l *Loop) MII(model machine.CycleModel, buses, fpus int) int {
	return l.Analysis().MII(model, buses, fpus)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// ASAP returns, for each operation, its earliest start time considering
// only distance-0 dependences (the acyclic core of the body). Used by the
// scheduler's ordering phase.
func (l *Loop) ASAP(model machine.CycleModel) []int { return l.Analysis().ASAP(model) }

// ALAP returns, for each operation, its latest start time such that the
// distance-0 critical path still fits in the same span as ASAP's.
func (l *Loop) ALAP(model machine.CycleModel) []int { return l.Analysis().ALAP(model) }

// CriticalPath returns the length in cycles of the longest distance-0
// dependence chain (the body's schedule length lower bound at infinite
// resources, before overlap).
func (l *Loop) CriticalPath(model machine.CycleModel) int {
	return l.Analysis().CriticalPath(model)
}

// RecurrenceOps returns the set of operations that belong to a dependence
// cycle (a strongly connected component of size > 1, or a self edge).
// These operations are never compactable: their instances in consecutive
// iterations are serially dependent.
func (l *Loop) RecurrenceOps() map[int]bool { return l.Analysis().RecurrenceOps() }

// Stats summarizes a loop for workload reporting.
type Stats struct {
	Ops         int
	MemOps      int
	FPUOps      int
	Recurrent   int     // operations on dependence cycles
	Compactable int     // operations eligible for widening (see widen pkg)
	RecMII4     int     // RecMII under the 4-cycles model
	AvgDist     float64 // mean dependence distance over edges
}

// ComputeStats returns summary statistics for the loop under the 4-cycle
// model.
func (l *Loop) ComputeStats() Stats {
	s := Stats{Ops: len(l.Ops)}
	rec := l.RecurrenceOps()
	for _, op := range l.Ops {
		if op.Kind.IsMem() {
			s.MemOps++
		} else {
			s.FPUOps++
		}
		if rec[op.ID] {
			s.Recurrent++
		}
		if compactableOp(op, rec) {
			s.Compactable++
		}
	}
	s.RecMII4 = l.RecMII(machine.FourCycle)
	if len(l.Edges) > 0 {
		sum := 0
		for _, e := range l.Edges {
			sum += e.Dist
		}
		s.AvgDist = float64(sum) / float64(len(l.Edges))
	}
	return s
}

// compactableOp is the widening eligibility rule shared with the widen
// package: unit-stride memory accesses and non-recurrent, non-scalar
// arithmetic compact; everything else does not.
func compactableOp(op Op, rec map[int]bool) bool {
	if op.Scalar || rec[op.ID] {
		return false
	}
	if op.Kind.IsMem() {
		return op.Stride == 1
	}
	return true
}

// Compactable reports whether operation id may be packed into wide
// operations when the loop is widened.
func (l *Loop) Compactable(id int) bool {
	return compactableOp(l.Ops[id], l.RecurrenceOps())
}

// MaxTripWeight is a guard against overflow when weighting cycles by trip
// counts; generators keep trip counts far below it.
const MaxTripWeight = math.MaxInt64 / 1024
