package sched

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/ddg"
	"repro/internal/machine"
)

// OrderFunc lists the operations of a loop in scheduling order.
type OrderFunc func(l *ddg.Loop, model machine.CycleModel) []int

// HRMSOrder implements the HRMS-family node ordering: recurrence components
// are seeded most-critical first (highest per-component RecMII), and every
// subsequent operation is chosen among the neighbours of the already
// ordered set, most critical (least slack) first. The effect is that when
// the placement phase schedules an operation, its graph neighbours were
// just scheduled, so it lands close to them and value lifetimes stay short
// — the register-pressure-sensitivity that HRMS (and its successor Swing
// Modulo Scheduling) brings over plain top-down list ordering.
func HRMSOrder(l *ddg.Loop, model machine.CycleModel) []int {
	return hrmsOrder(l, model, nil)
}

// hrmsOrder is HRMSOrder with an optional scratch workspace: with one,
// the key, rank and heap arrays (and the returned order, which the caller
// consumes before the next scheduling call) come from reusable slabs
// instead of per-call allocations, and a call for the loop version and
// model of the workspace's previous order returns that order unchanged.
//
// Every priority key is fixed for the call, so the ops are ranked once by
// the priority order; seeding is then a monotone cursor over the ranking
// and frontier picks pop a lazy-deletion min-heap of ranks, which keeps
// the ordering O(n log n) instead of a linear scan per pick.
func hrmsOrder(l *ddg.Loop, model machine.CycleModel, ws *Workspace) []int {
	n := l.NumOps()
	if n == 0 {
		return nil
	}
	// ASAP/ALAP, per-component recurrence criticality and the undirected
	// adjacency all come from the loop's analysis cache: a reschedule of
	// the same loop (every spill-pass II retry) reorders without
	// re-traversing the graph.
	a := l.Analysis()
	if ws != nil && ws.orderOf == a && ws.orderModel == model {
		return ws.order
	}
	asap := a.ASAP(model)
	alap := a.ALAP(model)

	var ints []int
	var ordered, frontier []bool
	var order []int
	if ws != nil {
		if cap(ws.hrmsInts) < 5*n {
			ws.hrmsInts = make([]int, 5*n)
		}
		ints = ws.hrmsInts
		if cap(ws.hrmsBools) < 2*n {
			ws.hrmsBools = make([]bool, 2*n)
		}
		ordered, frontier = ws.hrmsBools[0:n:n], ws.hrmsBools[n:2*n]
		clear(ordered)
		clear(frontier)
		if cap(ws.order) < n {
			ws.order = make([]int, 0, n)
		}
		order = ws.order[:0]
	} else {
		ints = make([]int, 5*n)
		sb := make([]bool, 2*n)
		ordered, frontier = sb[0:n:n], sb[n:] // frontier: unordered nodes adjacent to ordered set
		order = make([]int, 0, n)
	}
	slack, occ := ints[0:n:n], ints[n:2*n:2*n]
	rank, byRank := ints[2*n:3*n:3*n], ints[3*n:4*n:4*n]
	heap := rankHeap{rank: rank, items: ints[4*n : 4*n : 5*n]}
	for v := 0; v < n; v++ {
		slack[v] = alap[v] - asap[v]
	}

	// Per-node recurrence criticality: the RecMII of the node's component
	// (0 for nodes outside recurrences).
	recPrio := a.RecPrio(model)

	// Undirected adjacency for frontier expansion.
	adj := a.Adjacency()

	// Occupancy priority: non-pipelined operations reserve many rows and
	// fragment badly if placed late, so they go as early as the frontier
	// allows.
	for v := 0; v < n; v++ {
		occ[v] = model.Occupancy(l.Ops[v].Kind)
	}

	// Rank by priority: higher recurrence criticality first, then heavier
	// reservations, then less slack, then earlier ASAP, then ID for
	// determinism. The ID tie-break makes this a strict total order, so
	// the ranking is unique.
	for v := range byRank {
		byRank[v] = v
	}
	slices.SortFunc(byRank, func(a, b int) int {
		if recPrio[a] != recPrio[b] {
			return cmp.Compare(recPrio[b], recPrio[a])
		}
		if occ[a] != occ[b] {
			return cmp.Compare(occ[b], occ[a])
		}
		if slack[a] != slack[b] {
			return cmp.Compare(slack[a], slack[b])
		}
		if asap[a] != asap[b] {
			return cmp.Compare(asap[a], asap[b])
		}
		return cmp.Compare(a, b)
	})
	for i, v := range byRank {
		rank[v] = i
	}

	seed := 0 // every op ranked before the cursor is already ordered
	for len(order) < n {
		// The best frontier node, skipping entries ordered since their push.
		v := -1
		for len(heap.items) > 0 {
			if w := heap.pop(); !ordered[w] {
				v = w
				break
			}
		}
		if v == -1 {
			// Empty frontier: seed the best unordered node.
			for ordered[byRank[seed]] {
				seed++
			}
			v = byRank[seed]
		}
		ordered[v] = true
		order = append(order, v)
		for _, w := range adj[v] {
			if !ordered[w] && !frontier[w] {
				frontier[w] = true
				heap.push(w)
			}
		}
	}
	if ws != nil {
		ws.order, ws.orderOf, ws.orderModel = order, a, model
	}
	return order
}

// NaiveOrder is the ablation baseline: plain topological (ASAP-then-ID)
// order with no neighbour affinity. Schedules built from it are valid but
// stretch lifetimes, inflating register pressure (see BenchmarkAblation
// and the ordering comparison test).
func NaiveOrder(l *ddg.Loop, model machine.CycleModel) []int {
	n := l.NumOps()
	asap := l.ASAP(model)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if asap[a] != asap[b] {
			return asap[a] < asap[b]
		}
		return a < b
	})
	return order
}
