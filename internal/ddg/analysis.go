package ddg

import (
	"fmt"
	"sync"

	"repro/internal/machine"
)

// Analysis memoizes the scheduling analyses of one Loop: adjacency,
// strongly connected components, ASAP/ALAP times, recurrence bounds and
// resource bounds. One ModuloSchedule call needs most of these several
// times (the ordering phase and the MII bound share SCCs and ASAP), and
// the spill pass re-schedules the same loop at every II retry; the cache
// makes every analysis a compute-once lookup for the loop's lifetime.
//
// An Analysis snapshot is keyed to the loop's shape (operation and edge
// counts). Loop.Analysis revalidates the snapshot on every call, so
// append-style mutations — the spill rewriter adds ops and edges — are
// picked up automatically. Code that mutates a loop without changing
// either count must call Loop.InvalidateAnalysis.
//
// All methods are safe for concurrent use; the perfcost engine analyses
// shared widened loops from many goroutines. Returned slices and maps are
// owned by the cache: callers must treat them as read-only.
type Analysis struct {
	loop         *Loop
	nOps, nEdges int

	mu sync.Mutex

	validated bool
	validErr  error

	preds, succs [][]Edge
	adj          [][]int // undirected neighbours, self edges dropped
	topoZero     []int   // topological order of the distance-0 subgraph
	sccs         [][]int
	recOps       map[int]bool

	// cnt is the shared counting scratch of the slab builders below
	// (count-then-fill construction); it only lives under mu.
	cnt []int

	models map[machine.CycleModel]*modelAnalysis
	resMII map[resMIIKey]int
}

// modelAnalysis holds the analyses that depend on the cycle model.
type modelAnalysis struct {
	asap, alap []int
	recPrio    []int // per-node component RecMII (0 outside recurrences)
	recMII     int
	haveASAP   bool
	haveALAP   bool
	haveRec    bool
}

type resMIIKey struct {
	model       machine.CycleModel
	buses, fpus int
}

// Analysis returns the loop's analysis cache, building a fresh one when
// the loop's shape changed since the last snapshot.
func (l *Loop) Analysis() *Analysis {
	for {
		a := l.analysis.Load()
		if a != nil && a.nOps == len(l.Ops) && a.nEdges == len(l.Edges) {
			return a
		}
		fresh := &Analysis{loop: l, nOps: len(l.Ops), nEdges: len(l.Edges)}
		if l.analysis.CompareAndSwap(a, fresh) {
			return fresh
		}
	}
}

// InvalidateAnalysis drops the cached analyses. Only mutations that keep
// both the operation and the edge counts unchanged need to call it;
// appends are detected by Analysis itself.
func (l *Loop) InvalidateAnalysis() { l.analysis.Store(nil) }

// Validate memoizes Loop.Validate for the snapshot's shape. The
// distance-0 acyclicity check shares the cached topological order with
// ASAP/ALAP instead of re-sorting the subgraph.
func (a *Analysis) Validate() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.validated {
		a.validErr = a.loop.validateShape()
		if a.validErr == nil && len(a.topoZeroLocked()) != len(a.loop.Ops) {
			a.validErr = fmt.Errorf("ddg: loop %q: distance-0 subgraph has a cycle", a.loop.Name)
		}
		a.validated = true
	}
	return a.validErr
}

// Preds returns, for each operation, its incoming edges.
func (a *Analysis) Preds() [][]Edge {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.predsLocked()
}

// countsLocked returns the zeroed n-int counting scratch. Each builder
// uses it fully before returning; nothing retains it.
func (a *Analysis) countsLocked(n int) []int {
	if cap(a.cnt) < n {
		a.cnt = make([]int, n)
	}
	a.cnt = a.cnt[:n]
	for i := range a.cnt {
		a.cnt[i] = 0
	}
	return a.cnt
}

// edgeListsLocked builds per-node edge lists keyed by key(e) with
// count-then-fill slab construction: one header slice plus one edge slab
// instead of n append-grown lists.
func (a *Analysis) edgeListsLocked(key func(Edge) int) [][]Edge {
	n := len(a.loop.Ops)
	edges := a.loop.Edges
	cnt := a.countsLocked(n)
	for _, e := range edges {
		cnt[key(e)]++
	}
	slab := make([]Edge, len(edges))
	heads := make([][]Edge, n)
	off := 0
	for v := 0; v < n; v++ {
		heads[v] = slab[off : off : off+cnt[v]]
		off += cnt[v]
	}
	for _, e := range edges {
		v := key(e)
		heads[v] = append(heads[v], e)
	}
	return heads
}

func (a *Analysis) predsLocked() [][]Edge {
	if a.preds == nil {
		a.preds = a.edgeListsLocked(func(e Edge) int { return e.To })
	}
	return a.preds
}

// Succs returns, for each operation, its outgoing edges.
func (a *Analysis) Succs() [][]Edge {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.succsLocked()
}

func (a *Analysis) succsLocked() [][]Edge {
	if a.succs == nil {
		a.succs = a.edgeListsLocked(func(e Edge) int { return e.From })
	}
	return a.succs
}

// Adjacency returns the undirected neighbour lists (self edges dropped),
// as used by the scheduler's frontier-expansion ordering.
func (a *Analysis) Adjacency() [][]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.adj == nil {
		n := len(a.loop.Ops)
		edges := a.loop.Edges
		cnt := a.countsLocked(n)
		m := 0
		for _, e := range edges {
			if e.From != e.To {
				cnt[e.From]++
				cnt[e.To]++
				m += 2
			}
		}
		slab := make([]int, m)
		heads := make([][]int, n)
		off := 0
		for v := 0; v < n; v++ {
			heads[v] = slab[off : off : off+cnt[v]]
			off += cnt[v]
		}
		for _, e := range edges {
			if e.From != e.To {
				heads[e.From] = append(heads[e.From], e.To)
				heads[e.To] = append(heads[e.To], e.From)
			}
		}
		a.adj = heads
	}
	return a.adj
}

// SCCs returns the strongly connected components in reverse topological
// order of the condensation (see Loop.SCCs).
func (a *Analysis) SCCs() [][]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sccsLocked()
}

func (a *Analysis) sccsLocked() [][]int {
	if a.sccs == nil {
		a.sccs = tarjanSCCs(len(a.loop.Ops), a.succsLocked())
	}
	return a.sccs
}

// RecurrenceOps returns the set of operations on dependence cycles.
func (a *Analysis) RecurrenceOps() map[int]bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.recOps == nil {
		rec := make(map[int]bool)
		for _, comp := range a.sccsLocked() {
			if len(comp) > 1 {
				for _, v := range comp {
					rec[v] = true
				}
			}
		}
		for _, e := range a.loop.Edges {
			if e.From == e.To {
				rec[e.From] = true
			}
		}
		a.recOps = rec
	}
	return a.recOps
}

// topoZeroLocked returns a topological order of the distance-0 subgraph;
// it contains fewer than NumOps entries when that subgraph has a cycle
// (Validate rejects such loops).
func (a *Analysis) topoZeroLocked() []int {
	if a.topoZero == nil {
		order := a.topoOrderZeroDistLocked()
		if order == nil {
			order = []int{} // non-nil marks "computed"
		}
		a.topoZero = order
	}
	return a.topoZero
}

// topoOrderZeroDistLocked is topoOrderZeroDist over slab scratch: the
// counting scratch doubles as the flat adjacency offsets and the output
// order doubles as the Kahn queue.
func (a *Analysis) topoOrderZeroDistLocked() []int {
	n := len(a.loop.Ops)
	edges := a.loop.Edges
	cnt := a.countsLocked(n)
	indeg := make([]int, n)
	m := 0
	for _, e := range edges {
		if e.Dist == 0 {
			cnt[e.From]++
			indeg[e.To]++
			m++
		}
	}
	// Prefix sums turn cnt into fill cursors; after the fill pass cnt[v]
	// is the end offset of v's slice (its start is cnt[v-1]).
	flat := make([]int, m)
	sum := 0
	for v := 0; v < n; v++ {
		c := cnt[v]
		cnt[v] = sum
		sum += c
	}
	for _, e := range edges {
		if e.Dist == 0 {
			flat[cnt[e.From]] = e.To
			cnt[e.From]++
		}
	}
	order := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for head := 0; head < len(order); head++ {
		v := order[head]
		lo := 0
		if v > 0 {
			lo = cnt[v-1]
		}
		for _, w := range flat[lo:cnt[v]] {
			indeg[w]--
			if indeg[w] == 0 {
				order = append(order, w)
			}
		}
	}
	if len(order) != n {
		return nil
	}
	return order
}

func (a *Analysis) modelLocked(model machine.CycleModel) *modelAnalysis {
	if a.models == nil {
		a.models = make(map[machine.CycleModel]*modelAnalysis, 4)
	}
	ma := a.models[model]
	if ma == nil {
		ma = &modelAnalysis{}
		a.models[model] = ma
	}
	return ma
}

// ASAP returns each operation's earliest start time over distance-0
// dependences.
func (a *Analysis) ASAP(model machine.CycleModel) []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.asapLocked(model)
}

func (a *Analysis) asapLocked(model machine.CycleModel) []int {
	ma := a.modelLocked(model)
	if !ma.haveASAP {
		l := a.loop
		asap := make([]int, len(l.Ops))
		preds := a.predsLocked()
		for _, v := range a.topoZeroLocked() {
			for _, e := range preds[v] {
				if e.Dist != 0 {
					continue
				}
				if t := asap[e.From] + model.Latency(l.Ops[e.From].Kind); t > asap[v] {
					asap[v] = t
				}
			}
		}
		ma.asap = asap
		ma.haveASAP = true
	}
	return ma.asap
}

// ALAP returns each operation's latest start time such that the
// distance-0 critical path still fits in the ASAP span. It reuses the
// cached ASAP pass instead of recomputing it.
func (a *Analysis) ALAP(model machine.CycleModel) []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	ma := a.modelLocked(model)
	if !ma.haveALAP {
		l := a.loop
		asap := a.asapLocked(model)
		span := 0
		for _, t := range asap {
			if t > span {
				span = t
			}
		}
		alap := make([]int, len(l.Ops))
		for i := range alap {
			alap[i] = span
		}
		succs := a.succsLocked()
		order := a.topoZeroLocked()
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			for _, e := range succs[v] {
				if e.Dist != 0 {
					continue
				}
				if t := alap[e.To] - model.Latency(l.Ops[v].Kind); t < alap[v] {
					alap[v] = t
				}
			}
		}
		ma.alap = alap
		ma.haveALAP = true
	}
	return ma.alap
}

// CriticalPath returns the longest distance-0 dependence chain in cycles.
func (a *Analysis) CriticalPath(model machine.CycleModel) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	asap := a.asapLocked(model)
	best := 0
	for v, t := range asap {
		if end := t + model.Latency(a.loop.Ops[v].Kind); end > best {
			best = end
		}
	}
	return best
}

// RecPrio returns, per operation, the RecMII of its recurrence component
// (0 for operations outside recurrences) — the criticality the HRMS
// ordering seeds components by.
func (a *Analysis) RecPrio(model machine.CycleModel) []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.recPrioLocked(model)
}

func (a *Analysis) recPrioLocked(model machine.CycleModel) []int {
	ma := a.modelLocked(model)
	if !ma.haveRec {
		l := a.loop
		n := len(l.Ops)
		prio := make([]int, n)
		recMII := 1
		succs, comps := a.succsLocked(), a.sccsLocked()
		var sc recScratch
		for _, comp := range comps {
			if len(comp) == 1 && !a.hasSelfEdgeLocked(comp[0]) {
				continue
			}
			if sc.local == nil {
				// The counting scratch is free now that succs and the
				// SCCs are built, and zeroed as the local index needs.
				sc.local = a.countsLocked(n)
			}
			sub := l.recMIIOfComponent(comp, succs, model, &sc)
			for _, v := range comp {
				prio[v] = sub
			}
			if sub > recMII {
				recMII = sub
			}
		}
		ma.recPrio = prio
		ma.recMII = recMII
		ma.haveRec = true
	}
	return ma.recPrio
}

func (a *Analysis) hasSelfEdgeLocked(v int) bool {
	for _, e := range a.succsLocked()[v] {
		if e.To == v {
			return true
		}
	}
	return false
}

// RecMII returns the recurrence-constrained lower bound on the II.
func (a *Analysis) RecMII(model machine.CycleModel) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.recPrioLocked(model)
	return a.models[model].recMII
}

// ResMII returns the resource-constrained lower bound on the II for the
// given bus and FPU counts.
func (a *Analysis) ResMII(model machine.CycleModel, buses, fpus int) int {
	key := resMIIKey{model, buses, fpus}
	a.mu.Lock()
	defer a.mu.Unlock()
	if v, ok := a.resMII[key]; ok {
		return v
	}
	if a.resMII == nil {
		a.resMII = make(map[resMIIKey]int, 4)
	}
	v := computeResMII(a.loop, key.model, buses, fpus)
	a.resMII[key] = v
	return v
}

// MII returns max(ResMII, RecMII).
func (a *Analysis) MII(model machine.CycleModel, buses, fpus int) int {
	res := a.ResMII(model, buses, fpus)
	if rec := a.RecMII(model); rec > res {
		return rec
	}
	return res
}

// tarjanSCCs is Tarjan's algorithm, iterative, over precomputed successor
// lists. Components come out in reverse topological order of the
// condensation.
func tarjanSCCs(n int, succs [][]Edge) [][]int {
	const unvisited = -1
	il := make([]int, 2*n) // index and low as one slab
	index, low := il[:n:n], il[n:]
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var counter int
	stack := make([]int, 0, n)
	out := make([][]int, 0, n)
	// Every vertex lands in exactly one component, so all components are
	// carved from one shared n-int buffer.
	buf := make([]int, 0, n)

	type frame struct {
		v    int
		edge int
	}
	call := make([]frame, 0, n)
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		call = append(call[:0], frame{v: root})
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true

		for len(call) > 0 {
			f := &call[len(call)-1]
			if f.edge < len(succs[f.v]) {
				w := succs[f.v][f.edge].To
				f.edge++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Post-order: pop f.v.
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := &call[len(call)-1]
				if low[v] < low[parent.v] {
					low[parent.v] = low[v]
				}
			}
			if low[v] == index[v] {
				start := len(buf)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					buf = append(buf, w)
					if w == v {
						break
					}
				}
				out = append(out, buf[start:len(buf):len(buf)])
			}
		}
	}
	return out
}

// topoOrderZeroDist returns a topological order of the distance-0
// subgraph, or nil when it has a cycle.
func topoOrderZeroDist(n int, edges []Edge) []int {
	adj := make([][]int, n)
	indeg := make([]int, n)
	for _, e := range edges {
		if e.Dist == 0 {
			adj[e.From] = append(adj[e.From], e.To)
			indeg[e.To]++
		}
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != n {
		return nil
	}
	return order
}

// computeResMII is the uncached ResMII computation (see Loop.ResMII).
func computeResMII(l *Loop, model machine.CycleModel, buses, fpus int) int {
	memSlots, fpuSlots := 0, 0
	for _, op := range l.Ops {
		occ := model.Occupancy(op.Kind)
		if op.Kind.IsMem() {
			memSlots += occ
		} else {
			fpuSlots += occ
		}
	}
	mii := 1
	if buses > 0 && memSlots > 0 {
		if m := ceilDiv(memSlots, buses); m > mii {
			mii = m
		}
	}
	if fpus > 0 && fpuSlots > 0 {
		if m := ceilDiv(fpuSlots, fpus); m > mii {
			mii = m
		}
	}
	return mii
}
