// Package sched implements modulo scheduling (software pipelining) for the
// VLIW machines of the paper.
//
// The paper schedules its 1180-loop workbench with Hypernode Reduction
// Modulo Scheduling (HRMS, Llosa et al., MICRO-28), a register-pressure
// sensitive heuristic that achieves near-optimal initiation intervals. We
// implement the HRMS-family algorithm in two phases:
//
//  1. an ordering phase that lists the operations so that every operation
//     is scheduled as close as possible to its already-scheduled neighbours
//     (recurrence components first, most critical first) — this is what
//     keeps value lifetimes, and hence register pressure, low;
//  2. a placement phase that assigns each operation a cycle and a
//     reservation in a modulo reservation table, scanning forward from its
//     earliest start when predecessors are placed, backward from its latest
//     start when successors are placed. When a window is closed or full,
//     the phase falls back to the forced placement with eviction of Rau's
//     iterative modulo scheduling (the paper's reference [20]). The II
//     starts at MII = max(ResMII, RecMII) and increases until the loop
//     fits.
//
// The result is a flat schedule: an absolute start cycle per operation; row
// (cycle mod II) and stage (cycle div II) derive from it.
package sched

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/mrt"
)

// Schedule is a valid modulo schedule of a loop on a machine.
type Schedule struct {
	// Loop is the scheduled loop (the transformed loop when widening).
	Loop *ddg.Loop
	// II is the initiation interval in cycles.
	II int
	// Time[v] is the absolute start cycle of operation v (>= 0).
	Time []int
	// Res[v] is the reservation operation v holds in the modulo
	// reservation table.
	Res []mrt.Reservation
	// Model, Buses and FPUs record the machine the schedule targets.
	Model machine.CycleModel
	Buses int
	FPUs  int
}

// Row returns the cycle of operation v within the repeating kernel.
func (s *Schedule) Row(v int) int { return s.Time[v] % s.II }

// Stage returns the pipeline stage of operation v.
func (s *Schedule) Stage(v int) int { return s.Time[v] / s.II }

// Stages returns the number of pipeline stages (the depth of overlap).
func (s *Schedule) Stages() int {
	max := 0
	for v := range s.Time {
		if st := s.Stage(v); st > max {
			max = st
		}
	}
	return max + 1
}

// Length returns the absolute span of the schedule in cycles: the start of
// the last operation plus one (the flat-schedule length before overlap).
func (s *Schedule) Length() int {
	max := 0
	for _, t := range s.Time {
		if t+1 > max {
			max = t + 1
		}
	}
	return max
}

// Validate checks every dependence constraint and rebuilds the reservation
// table to confirm the resource assignment is consistent.
func (s *Schedule) Validate() error {
	l := s.Loop
	if len(s.Time) != l.NumOps() || len(s.Res) != l.NumOps() {
		return fmt.Errorf("sched: schedule arrays sized %d/%d for %d ops",
			len(s.Time), len(s.Res), l.NumOps())
	}
	if s.II < 1 {
		return fmt.Errorf("sched: invalid II %d", s.II)
	}
	for v, t := range s.Time {
		if t < 0 {
			return fmt.Errorf("sched: op %d starts at negative cycle %d", v, t)
		}
	}
	for _, e := range l.Edges {
		lat := s.Model.Latency(l.Ops[e.From].Kind)
		if s.Time[e.To] < s.Time[e.From]+lat-s.II*e.Dist {
			return fmt.Errorf("sched: dependence %d->%d (dist %d) violated: %d < %d+%d-%d*%d",
				e.From, e.To, e.Dist, s.Time[e.To], s.Time[e.From], lat, s.II, e.Dist)
		}
	}
	table := mrt.New(s.II, s.Buses, s.FPUs)
	for v, op := range l.Ops {
		res := s.Res[v]
		if res.Class != classOf(op.Kind) {
			return fmt.Errorf("sched: op %d (%s) holds a %s reservation", v, op.Kind, res.Class)
		}
		occ := 0
		for _, sp := range res.Spans {
			occ += sp.Occ
		}
		if occ != s.Model.Occupancy(op.Kind) {
			return fmt.Errorf("sched: op %d reserves %d rows, needs %d",
				v, occ, s.Model.Occupancy(op.Kind))
		}
		if len(res.Spans) == 0 || mod(res.Spans[0].Cycle, s.II) != s.Row(v) {
			return fmt.Errorf("sched: op %d reservation does not start at its issue row", v)
		}
		if !table.PlaceExact(res) {
			return fmt.Errorf("sched: op %d (%s) overlaps another reservation", v, op.Kind)
		}
	}
	return nil
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

func classOf(k machine.OpKind) mrt.Class {
	if k.IsMem() {
		return mrt.Mem
	}
	return mrt.FPU
}

// Format renders the kernel as a II-row table for human inspection.
func (s *Schedule) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "II=%d stages=%d ops=%d\n", s.II, s.Stages(), s.Loop.NumOps())
	byRow := make([][]int, s.II)
	for v := range s.Loop.Ops {
		r := s.Row(v)
		byRow[r] = append(byRow[r], v)
	}
	for r := 0; r < s.II; r++ {
		fmt.Fprintf(&b, "%3d:", r)
		sort.Ints(byRow[r])
		for _, v := range byRow[r] {
			op := s.Loop.Ops[v]
			name := op.Name
			if name == "" {
				name = fmt.Sprintf("%s%d", op.Kind, v)
			}
			fmt.Fprintf(&b, " %s@s%d", name, s.Stage(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Options tunes the scheduler.
type Options struct {
	// Order selects the ordering heuristic; nil uses HRMSOrder.
	Order OrderFunc
	// MinII raises the starting point of the II search above MII. The
	// spill pass uses it to trade cycles for register pressure when no
	// spill candidate remains.
	MinII int
	// MaxII caps the II search; 0 derives a safe cap from the loop (the
	// cap at which a schedule provably exists for the greedy placement).
	MaxII int
	// Workspace, when set, serves the call's ordering and placement
	// scratch from a reusable arena instead of fresh allocations — the
	// cold-start path of an engine evaluating many loops in sequence. The
	// Schedule ModuloSchedule returns never aliases the workspace.
	Workspace *Workspace
}

// Workspace is a reusable scheduling scratch arena: the ordering and
// placement state (ranks, frontier marks, the lazy-deletion heap, the
// modulo reservation table and its slot owners) plus the storage of the
// last probe schedule (see Probe). A zero Workspace is ready to use; it
// grows to the largest loop it has scheduled and is NOT safe for
// concurrent use — callers borrow one per worker (AcquireWorkspace).
type Workspace struct {
	ints      []int  // rank + lastForced + heap seed + owner stamps, one 4n slab
	placed    []bool // placement marks
	hrmsInts  []int  // HRMS slack + occupancy + rank + ranking + frontier heap, one 5n slab
	hrmsBools []bool // HRMS ordered + frontier marks, one 2n slab
	order     []int  // HRMS output, reused across calls

	// orderOf and orderModel name the loop version and cycle model order
	// was computed for. A loop's Analysis pointer changes whenever its
	// shape does, so a later call with the same pair (the spill pass
	// rescheduling one loop version at several IIs) reuses order as is.
	// Holding the pointer keeps its address from being reused meanwhile.
	orderOf    *ddg.Analysis
	orderModel machine.CycleModel

	// Probe schedule storage: times, reservations and their one-span
	// slots, and the Schedule header Probe returns.
	time  []int
	res   []mrt.Reservation
	spans []mrt.Span
	sched Schedule

	p placer // placer header (holds the reservation table across calls)
}

// NewWorkspace returns an empty scheduling workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// wsPool is the process-wide workspace pool: ModuloSchedule calls without
// a workspace and the perfcost engines (through AcquireWorkspace) share its
// warm arenas, so even an engine rebuilt after eviction skips the cold-start
// allocations. Safe because ModuloSchedule clones its probe before the
// workspace goes back.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// AcquireWorkspace borrows a workspace from the process-wide pool.
func AcquireWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// ReleaseWorkspace returns a borrowed workspace to the pool.
func ReleaseWorkspace(ws *Workspace) { wsPool.Put(ws) }

// ErrNoSchedule is returned when no II up to the cap admits a schedule.
var ErrNoSchedule = errors.New("sched: no feasible schedule within II budget")

// ModuloSchedule software-pipelines the loop onto the machine. The loop
// must already be width-transformed for the machine (see the widen
// package); the scheduler treats wide operations as single operations.
//
// Every graph analysis the schedule needs (validation, ordering inputs,
// the MII bound, ASAP times, adjacency) is served from the loop's
// analysis cache, so rescheduling the same loop — the spill pass does it
// at every II retry — pays for the traversals once.
//
// It is Probe followed by Clone: the result owns its storage.
func ModuloSchedule(l *ddg.Loop, m machine.Machine, opts *Options) (*Schedule, error) {
	var ws *Workspace
	if opts != nil {
		ws = opts.Workspace
	}
	if ws == nil {
		ws = AcquireWorkspace()
		defer ReleaseWorkspace(ws)
	}
	s, err := ws.Probe(l, m, opts)
	if err != nil {
		return nil, err
	}
	return s.Clone(), nil
}

// Probe is ModuloSchedule writing the schedule into the workspace's own
// storage instead of fresh arrays: the returned Schedule (its header,
// Time, Res and spans) aliases ws and is valid only until ws serves
// another call. Callers that try many schedules and keep few — the spill
// pass — probe and Clone the one they keep. opts.Workspace is ignored.
func (ws *Workspace) Probe(l *ddg.Loop, m machine.Machine, opts *Options) (*Schedule, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	a := l.Analysis()
	if err := a.Validate(); err != nil {
		return nil, err
	}
	var o Options
	if opts != nil {
		o = *opts
	}
	buses, fpus := m.Slots()
	model := m.Model

	var order []int
	if o.Order != nil {
		order = o.Order(l, model)
	} else {
		order = hrmsOrder(l, model, ws)
	}
	if len(order) != l.NumOps() {
		return nil, fmt.Errorf("sched: ordering returned %d of %d ops", len(order), l.NumOps())
	}

	mii := a.MII(model, buses, fpus)
	if o.MinII > mii {
		mii = o.MinII
	}
	maxII := o.MaxII
	if maxII == 0 {
		maxII = safeMaxII(l, model, mii)
	}

	// One scratch arena serves the whole II search: the placement state
	// (times, reservations, heap, reservation table) is reset in place at
	// each candidate II instead of being reallocated.
	p := ws.placer(l, model, order, a.Preds(), a.Succs(), a.ASAP(model))
	for ii := mii; ii <= maxII; ii++ {
		if p.tryPlace(buses, fpus, ii) {
			ws.sched = Schedule{Loop: l, II: ii, Time: p.time, Res: p.res,
				Model: model, Buses: buses, FPUs: fpus}
			return &ws.sched, nil
		}
	}
	return nil, fmt.Errorf("%w (MII=%d, cap=%d, loop %q)", ErrNoSchedule, mii, maxII, l.Name)
}

// Clone returns a copy of s that shares no storage with it (the loop
// itself is shared; schedules never modify it).
func (s *Schedule) Clone() *Schedule {
	c := *s
	c.Time = append([]int(nil), s.Time...)
	c.Res = make([]mrt.Reservation, len(s.Res))
	total := 0
	for _, r := range s.Res {
		total += len(r.Spans)
	}
	spans := make([]mrt.Span, 0, total)
	for v, r := range s.Res {
		from := len(spans)
		spans = append(spans, r.Spans...)
		c.Res[v] = mrt.Reservation{Class: r.Class, Spans: spans[from:len(spans):len(spans)]}
	}
	return &c
}

// safeMaxII returns an II at which the greedy placement provably succeeds:
// large enough that any window of II rows contains a free run of the
// largest occupancy on some unit even under worst-case fragmentation.
func safeMaxII(l *ddg.Loop, model machine.CycleModel, mii int) int {
	totalOcc, maxOcc := 0, 1
	for _, op := range l.Ops {
		occ := model.Occupancy(op.Kind)
		totalOcc += occ
		if occ > maxOcc {
			maxOcc = occ
		}
	}
	return mii + l.CriticalPath(model) + totalOcc*(maxOcc+1) + 8
}

const inf = int(^uint(0) >> 2)

// placer is the per-search scratch arena of the placement phase. One
// placer serves every candidate II of a Probe call: tryPlace resets the
// state in place instead of reallocating it, and the final schedule is
// read straight out of the time/reservation arrays.
type placer struct {
	l            *ddg.Loop
	model        machine.CycleModel
	preds, succs [][]ddg.Edge
	asap         []int

	// rank[v] is v's position in the scheduling order; the next operation
	// to (re)place is always the unplaced one with the smallest rank.
	order []int
	rank  []int

	time       []int
	res        []mrt.Reservation
	placed     []bool
	lastForced []int

	// heap holds the operations awaiting (re)placement, keyed by rank;
	// popping skips entries whose operation was placed since being pushed.
	heap rankHeap

	table *mrt.Table

	// owner[class][unit*ii+row] is the placed operation holding that slot
	// of the reservation table, or -1: the eviction path reads a window's
	// victims off it instead of scanning the operations of the class.
	owner [2][]int32
	// stamp[v] == epoch marks v as already collected by the current
	// windowOwners pass (distinct owners without clearing a set).
	stamp   []int
	epoch   int
	victims []int
}

// placer binds the workspace's placer header to a loop and carves its
// scratch, including the probe schedule's time and reservation arrays,
// from the workspace slabs.
func (ws *Workspace) placer(l *ddg.Loop, model machine.CycleModel, order []int,
	preds, succs [][]ddg.Edge, asap []int) *placer {

	n := l.NumOps()
	p := &ws.p
	if cap(ws.ints) < 4*n {
		ws.ints = make([]int, 4*n)
	}
	ints := ws.ints
	if cap(ws.placed) < n {
		ws.placed = make([]bool, n)
	}
	if cap(ws.time) < n {
		ws.time = make([]int, n)
		ws.res = make([]mrt.Reservation, n)
		ws.spans = make([]mrt.Span, n)
	}
	p.l, p.model, p.order = l, model, order
	p.preds, p.succs, p.asap = preds, succs, asap
	p.placed = ws.placed[:n]
	p.rank = ints[0:n:n]
	p.lastForced = ints[n : 2*n : 2*n]
	p.heap = rankHeap{rank: p.rank, items: ints[2*n : 2*n : 3*n]}
	p.stamp = ints[3*n : 4*n : 4*n]
	clear(p.stamp)
	p.epoch = 0
	p.victims = p.victims[:0]

	// Every reservation starts with a one-span slot carved from one
	// slab: the common case (occupancy <= II) fills it in place, so
	// placement allocates no spans at all.
	p.time = ws.time[:n]
	p.res = ws.res[:n]
	for v := range p.res {
		p.res[v].Spans = ws.spans[v : v : v+1]
	}
	for i, v := range order {
		p.rank[v] = i
	}
	return p
}

// reset prepares the arena for a fresh placement attempt at the given II.
func (p *placer) reset(buses, fpus, ii int) {
	for v := range p.placed {
		p.placed[v] = false
		p.lastForced[v] = -inf
	}
	// The order is rank-ascending, so it is already a valid min-heap.
	p.heap.items = append(p.heap.items[:0], p.order...)
	if p.table == nil {
		p.table = mrt.New(ii, buses, fpus)
	} else {
		p.table.Reset(ii, buses, fpus)
	}
	counts := [2]int{mrt.Mem: buses, mrt.FPU: fpus}
	for c := range p.owner {
		// Grown like append: the spill pass retries ever larger IIs.
		slots := counts[c] * ii
		p.owner[c] = slices.Grow(p.owner[c][:0], slots)[:slots]
		for i := range p.owner[c] {
			p.owner[c][i] = -1
		}
	}
}

// own records w as the holder of every slot of reservation r (w = -1
// frees them).
func (p *placer) own(r *mrt.Reservation, w int32) {
	ii := p.table.II()
	owner := p.owner[r.Class]
	for _, sp := range r.Spans {
		slots := owner[sp.Unit*ii : (sp.Unit+1)*ii]
		row := mod(sp.Cycle, ii)
		for k := 0; k < sp.Occ; k++ {
			slots[row] = w
			if row++; row == ii {
				row = 0
			}
		}
	}
}

// windowOwners collects into p.victims the distinct operations holding
// any of the occ (<= ii) slots from row onwards, circularly, of one unit's
// owner row, stopping once it has limit of them. It returns their count.
func (p *placer) windowOwners(slots []int32, row, occ, limit int) int {
	p.epoch++
	p.victims = p.victims[:0]
	for k := 0; k < occ && len(p.victims) < limit; k++ {
		if w := int(slots[row]); w >= 0 && p.stamp[w] != p.epoch {
			p.stamp[w] = p.epoch
			p.victims = append(p.victims, w)
		}
		if row++; row == len(slots) {
			row = 0
		}
	}
	return len(p.victims)
}

// rankHeap is a min-heap of operations keyed by their unique rank. Both
// users delete lazily: a pop may return an operation that has since been
// placed or ordered, and the caller skips it. Ranks are unique, so the pop
// order matches a linear smallest-rank scan exactly.
type rankHeap struct {
	rank  []int
	items []int
}

func (h *rankHeap) push(v int) {
	items := append(h.items, v)
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.rank[items[parent]] <= h.rank[items[i]] {
			break
		}
		items[parent], items[i] = items[i], items[parent]
		i = parent
	}
	h.items = items
}

func (h *rankHeap) pop() int {
	items := h.items
	top := items[0]
	last := len(items) - 1
	items[0] = items[last]
	items = items[:last]
	h.items = items
	i := 0
	for {
		l := 2*i + 1
		if l >= len(items) {
			break
		}
		small := l
		if r := l + 1; r < len(items) && h.rank[items[r]] < h.rank[items[l]] {
			small = r
		}
		if h.rank[items[i]] <= h.rank[items[small]] {
			break
		}
		items[i], items[small] = items[small], items[i]
		i = small
	}
	return top
}

// popUnplaced returns the unplaced operation with the smallest rank,
// discarding stale heap entries, or -1 when none remains.
func (p *placer) popUnplaced() int {
	for len(p.heap.items) > 0 {
		if v := p.heap.pop(); !p.placed[v] {
			return v
		}
	}
	return -1
}

// tryPlace attempts a schedule at a fixed II following the placer's order,
// leaving it in p.time and p.res on success.
func (p *placer) tryPlace(buses, fpus, ii int) bool {
	l, model := p.l, p.model
	n := l.NumOps()
	p.reset(buses, fpus, ii)
	time, res, placed, lastForced := p.time, p.res, p.placed, p.lastForced
	table := p.table

	budget := 8*n + 64
	remaining := n
	frontier := 0 // latest placed start time: seeds new components nearby
	for remaining > 0 {
		if budget--; budget < 0 {
			return false
		}
		// Pick the unplaced op with the best (smallest) rank.
		v := p.popUnplaced()
		if v < 0 {
			return false // unreachable: remaining > 0 implies an entry
		}
		op := l.Ops[v]
		occ := model.Occupancy(op.Kind)
		class := classOf(op.Kind)

		estart, lstart := -inf, inf
		hasPred, hasSucc := false, false
		for _, e := range p.preds[v] {
			if e.From == v || !placed[e.From] {
				continue
			}
			hasPred = true
			if t := time[e.From] + model.Latency(l.Ops[e.From].Kind) - ii*e.Dist; t > estart {
				estart = t
			}
		}
		for _, e := range p.succs[v] {
			if e.To == v || !placed[e.To] {
				continue
			}
			hasSucc = true
			if t := time[e.To] - model.Latency(op.Kind) + ii*e.Dist; t < lstart {
				lstart = t
			}
		}
		// Self edges (dist >= 1) constrain II, not the start time, and MII
		// already accounts for them.

		// Candidate cycles are scanned directly — a window of at most II
		// cycles, forward or backward depending on which neighbours are
		// placed — instead of materializing a candidate slice per op.
		var from, to, step int
		switch {
		case hasPred && !hasSucc:
			// Start no earlier than one II behind the frontier: a node
			// whose predecessor sits many iterations back (e.g. a reload
			// of a cross-iteration value) would otherwise issue absurdly
			// early and hold its result for several kernel turns.
			base := estart
			if fb := frontier - ii + 1; fb > base {
				base = fb
			}
			from, to, step = base, base+ii-1, 1
		case !hasPred && hasSucc:
			from, to, step = lstart, lstart-ii+1, -1
		case hasPred && hasSucc:
			hi := lstart
			if estart+ii-1 < hi {
				hi = estart + ii - 1
			}
			from, to, step = estart, hi, 1
		default:
			// No placed neighbours: this seeds a new connected component.
			// Start near the schedule frontier rather than at the flat
			// ASAP — otherwise every independent dataflow tree issues at
			// cycle ~0 and their lifetimes all overlap, holding register
			// pressure at the DAG's antichain width even at enormous IIs
			// (HRMS's whole point is scheduling each operation next to
			// already-placed work).
			base := p.asap[v]
			if frontier > base {
				base = frontier
			}
			from, to, step = base, base+ii-1, 1
		}

		done := false
		for t := from; (step > 0 && t <= to) || (step < 0 && t >= to); t += step {
			if table.PlaceInto(&res[v], class, t, occ) {
				time[v], placed[v] = t, true
				p.own(&res[v], int32(v))
				done = true
				break
			}
		}
		if done {
			if time[v] > frontier {
				frontier = time[v]
			}
			remaining--
			continue
		}

		// Forced placement with eviction. Choose a forcing time that makes
		// forward progress: never re-force the same op at the same cycle.
		var tf int
		switch {
		case hasPred:
			tf = estart
		case hasSucc:
			tf = lstart
		default:
			tf = p.asap[v]
			if frontier > tf {
				tf = frontier
			}
		}
		if tf <= lastForced[v] {
			tf = lastForced[v] + 1
		}
		lastForced[v] = tf

		evict := func(u int) {
			if placed[u] {
				table.Release(res[u])
				p.own(&res[u], -1)
				placed[u] = false
				p.heap.push(u)
				remaining++
			}
		}
		// Dependence victims: placed neighbours whose constraint against
		// time[v] = tf no longer holds.
		for _, e := range p.preds[v] {
			if e.From != v && placed[e.From] &&
				tf < time[e.From]+model.Latency(l.Ops[e.From].Kind)-ii*e.Dist {
				evict(e.From)
			}
		}
		for _, e := range p.succs[v] {
			if e.To != v && placed[e.To] &&
				time[e.To] < tf+model.Latency(op.Kind)-ii*e.Dist {
				evict(e.To)
			}
		}

		// Resource victims, read off the slot owners. v itself is unplaced,
		// so it owns no slot. Eviction order does not matter: ranks are
		// unique, so the heap pops the same sequence whatever the pushes.
		bestUnit := -1
		if occ <= ii {
			// Free one unit's conflicting rows: pick the unit of the class
			// with the fewest distinct holders in the window, the lowest
			// such unit on a tie. A count reaching the best so far cannot
			// win, so it stops there; a free window ends the search.
			row := mod(tf, ii)
			owner := p.owner[class]
			bestCount := inf
			for u := 0; u < table.Units(class) && bestCount > 0; u++ {
				if cnt := p.windowOwners(owner[u*ii:(u+1)*ii], row, occ, bestCount); cnt < bestCount {
					bestUnit, bestCount = u, cnt
				}
			}
			p.windowOwners(owner[bestUnit*ii:(bestUnit+1)*ii], row, occ, inf)
		} else {
			// Multi-unit reservation: evict every operation of the class
			// (rare: a non-pipelined op at an II below its occupancy).
			p.victims = p.victims[:0]
			for w := range placed {
				if placed[w] && res[w].Class == class {
					p.victims = append(p.victims, w)
				}
			}
		}
		if victimCheck != nil {
			victimCheck(p, v, tf, bestUnit)
		}
		for _, w := range p.victims {
			evict(w)
		}
		if !table.PlaceInto(&res[v], class, tf, occ) {
			return false // class too small for the reservation at this II
		}
		time[v], placed[v] = tf, true
		p.own(&res[v], int32(v))
		if tf > frontier {
			frontier = tf
		}
		remaining--
	}

	// Normalize to non-negative times, shifting by a multiple of II so the
	// reservation rows stay aligned with the units.
	min := 0
	for _, t := range time {
		if t < min {
			min = t
		}
	}
	if min < 0 {
		shift := ((-min + ii - 1) / ii) * ii
		for v := range time {
			time[v] += shift
			for i := range res[v].Spans {
				res[v].Spans[i].Cycle += shift
			}
		}
	}

	return true
}

// victimCheck, when set, sees every forced placement after its
// dependence evictions and before its resource evictions: the operation,
// its forcing cycle, the chosen unit (-1 for a multi-unit reservation)
// and the victims in p.victims. The differential tests install it.
var victimCheck func(p *placer, v, tf, bestUnit int)
