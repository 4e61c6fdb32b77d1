// Package spill implements register-constrained software pipelining: when
// the registers a schedule requires exceed the architected register file,
// spill code is added and the loop is rescheduled (the paper's Section 3.2,
// following the heuristics of Llosa et al., MICRO-29).
//
// Each round schedules the loop, allocates registers (wands-only end-fit),
// and — if the requirement exceeds the file — spills the most profitable
// values: the longest lifetime per use, excluding recurrence values (whose
// spilling would inflate RecMII) and values created by earlier spills. A
// spilled value gets a store after its definition and one reload per
// distinct consumer distance; the reload feeds the consumers, cutting the
// long register lifetime into short ones at the price of extra memory
// traffic, which can itself raise the II. When no candidate remains, the
// pass trades cycles directly by forcing a larger II, which lowers the
// overlap and hence the pressure. A loop that still does not fit is
// reported as unschedulable — exactly what the paper observes for the 8w1
// configuration with a 32-register file.
package spill

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ddg"
	"repro/internal/lifetimes"
	"repro/internal/machine"
	"repro/internal/regalloc"
	"repro/internal/sched"
)

// Options tunes the spill pass.
type Options struct {
	// Strategy is the allocation heuristic (default end-fit).
	Strategy regalloc.Strategy
	// MaxRounds bounds the spill-reschedule iterations (default 24).
	MaxRounds int
	// MaxIIGrowth bounds the forced-II fallback: the II may grow to this
	// multiple of the first feasible II plus a constant (default 8x + 16).
	// A loop that does not fit within the bound is reported unschedulable.
	MaxIIGrowth int
	// Order overrides the scheduler's ordering heuristic (nil = HRMS).
	Order sched.OrderFunc
	// Workspace, when set, serves every reschedule's ordering and
	// placement scratch, and holds its probe schedule, in one reusable
	// arena (see sched.Workspace); nil borrows one from the pool for the
	// call. Not safe for concurrent use; the engine pools one per worker.
	Workspace *sched.Workspace
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.MaxRounds == 0 {
		out.MaxRounds = 24
	}
	if out.MaxIIGrowth == 0 {
		out.MaxIIGrowth = 8
	}
	return out
}

// Result reports the outcome of register-constrained scheduling.
type Result struct {
	// OK is false when the loop cannot be scheduled within the register
	// file even with spill code and II growth.
	OK bool
	// Sched is the final schedule (nil when !OK).
	Sched *sched.Schedule
	// Loop is the final loop including spill code (nil when !OK).
	Loop *ddg.Loop
	// Regs is the register count of the final allocation (0 from Fit).
	Regs int
	// BaseII is the II of the unconstrained schedule (before spilling).
	BaseII int
	// SpillStores and SpillLoads count inserted operations.
	SpillStores, SpillLoads int
	// Rounds is the number of spill-reschedule iterations used.
	Rounds int
}

// II returns the final initiation interval.
func (r Result) II() int {
	if r.Sched == nil {
		return 0
	}
	return r.Sched.II
}

// scratch is the allocator probe state of one Schedule call: a lifetime
// set and a search permanently bound to it. Pooling the pair removes the
// last per-call allocations of a warm engine's spill probes.
type scratch struct {
	ls     lifetimes.Set
	search *regalloc.Search
}

var scratchPool = sync.Pool{New: func() any {
	s := &scratch{}
	s.search = regalloc.NewSearch(&s.ls)
	return s
}}

// Schedule software-pipelines the loop under the machine's register file
// size. The loop must already be width-transformed for the machine.
func Schedule(l *ddg.Loop, m machine.Machine, opts *Options) (Result, error) {
	return schedule(l, m, opts, true)
}

// Fit is Schedule without the final register search: every field but Regs
// (left 0) is the same. Callers that only need the schedule, its II and
// its spill counts skip the exact MinRegs scan.
func Fit(l *ddg.Loop, m machine.Machine, opts *Options) (Result, error) {
	return schedule(l, m, opts, false)
}

func schedule(l *ddg.Loop, m machine.Machine, opts *Options, minRegs bool) (Result, error) {
	o := opts.withDefaults()
	if o.Workspace == nil {
		o.Workspace = sched.AcquireWorkspace()
		defer sched.ReleaseWorkspace(o.Workspace)
	}
	// One lifetime set and one allocator search are reused across every
	// spill round and every candidate II of the growth fallbacks: the
	// TryAllocate→MinRegs→growII sequence rebinds them instead of
	// recomputing orders and reallocating scratch per probe. The pair is
	// pooled across Schedule calls — nothing below retains either past
	// the return (results carry only schedules and counts).
	scr := scratchPool.Get().(*scratch)
	defer scratchPool.Put(scr)
	res, err := fit(l, m, &o, scr)
	if err == nil && res.OK && minRegs {
		// fit leaves the search bound to the returned schedule.
		res.Regs = scr.search.MinRegs(o.Strategy)
	}
	return res, err
}

// fit runs the spill rounds and the growth fallbacks. Every schedule it
// tries is a workspace probe; only the one it returns is cloned. On
// success the scratch search is still bound to that schedule's lifetimes.
func fit(l *ddg.Loop, m machine.Machine, o *Options, scr *scratch) (Result, error) {
	avail := m.RF.Regs
	cur := l.Clone()
	ws := o.Workspace
	ls, search := &scr.ls, scr.search

	var res Result

	s, err := ws.Probe(cur, m, &sched.Options{Order: o.Order})
	if err != nil {
		return Result{}, fmt.Errorf("spill: base schedule: %w", err)
	}
	res.BaseII = s.II

	// Spill rounds interleaved with II escalation: spilling trims long
	// lifetimes at the price of memory traffic; raising the II floor
	// shrinks the overlap-driven share of the pressure. Whenever a round
	// fails to close the gap, the II floor rises a quarter — without this
	// the two mechanisms can feed each other (spill stores congest the
	// buses, stretching the very lifetimes being spilled).
	minII := 0
	capII := res.BaseII*o.MaxIIGrowth + 16
	bestGap := int(^uint(0) >> 1)
	for round := 0; round <= o.MaxRounds; round++ {
		if minII > capII {
			break // a compiler does not slow a loop down without bound
		}
		res.Rounds = round
		lifetimes.ComputeInto(ls, s)
		search.Reset(ls)
		// Fast path: check fit at the architected size before paying for
		// the exact minimum (the scan from MaxLive is short when it fits).
		if search.Fits(avail, o.Strategy) {
			res.OK = true
			res.Sched = s.Clone()
			res.Loop = cur
			return res, nil
		}
		if round == o.MaxRounds {
			break
		}

		gap := search.MaxLive() - avail
		if gap < 1 {
			gap = 1 // MaxLive fits but the packing does not: fragmentation
		}
		if gap >= bestGap {
			minII = s.II + s.II/4 + 1
		} else {
			bestGap = gap
		}

		cands := candidates(cur, ls, s.Model)
		if len(cands) > 0 {
			k := gap/2 + 1
			if k > len(cands) {
				k = len(cands)
			}
			if k > 16 {
				k = 16
			}
			for _, c := range cands[:k] {
				st, lds := spillValue(cur, c)
				res.SpillStores += st
				res.SpillLoads += lds
			}
		} else if minII <= s.II {
			minII = s.II + s.II/4 + 1
		}
		s, err = ws.Probe(cur, m, &sched.Options{Order: o.Order, MinII: minII})
		if err != nil {
			return Result{}, fmt.Errorf("spill: reschedule round %d: %w", round+1, err)
		}
	}

	// Fallback 1: force larger IIs on the spilled loop — less overlap,
	// shorter relative lifetimes, lower pressure. The cap scales from
	// wherever the spill rounds left the II, not just the original base,
	// so heavy spilling cannot strand the search below its own schedule.
	maxII := capII
	if alt := s.II * 2; alt > maxII {
		maxII = alt
	}
	if g, ok := growII(cur, m, o, avail, s.II+1, maxII, ls, search); ok {
		res.OK = true
		res.Sched = g
		res.Loop = cur
		return res, nil
	}

	// Fallback 2: abandon the spill code and grow the II of the original
	// loop instead. Spill stores congest the buses and can hold pressure
	// up at any II; the pristine loop's pressure always falls with the II
	// (only recurrence values resist), so this path rescues loops the
	// spilling dug into a hole.
	if g, ok := growII(l, m, o, avail, res.BaseII+1, capII, ls, search); ok {
		res.OK = true
		res.Sched = g
		res.Loop = l.Clone()
		res.SpillStores, res.SpillLoads = 0, 0
		return res, nil
	}

	// Fallback 3: the pressure that survives any II is the values consumed
	// in later iterations (each holds ~distance registers forever). Spill
	// exactly those — identified straight off the graph — and grow the II
	// of the result; at a large II the extra memory traffic is free.
	cur3 := l.Clone()
	stores3, loads3 := 0, 0
	rec := cur3.RecurrenceOps()
	succs := cur3.Succs()
	for v := range cur3.Ops {
		op := cur3.Ops[v]
		if !op.Kind.HasResult() || op.Spill || rec[v] {
			continue
		}
		carried := false
		for _, e := range succs[v] {
			if e.Dist > 0 && e.To != v {
				carried = true
				break
			}
		}
		if carried {
			st, lds := spillValue(cur3, candidate{op: v})
			stores3 += st
			loads3 += lds
		}
	}
	if stores3 > 0 {
		if g, ok := growII(cur3, m, o, avail, res.BaseII+1, 2*capII, ls, search); ok {
			res.OK = true
			res.Sched = g
			res.Loop = cur3
			res.SpillStores, res.SpillLoads = stores3, loads3
			return res, nil
		}
	}

	res.OK = false
	return res, nil
}

// growII searches for the smallest II in [startII, maxII] at which the
// loop's allocation fits avail registers, recomputing lifetimes into the
// shared set and rebinding the shared search at each candidate; it returns
// a clone of the fitting probe, with the search left bound to it. Far from
// the target it steps geometrically (pressure falls roughly as 1/II, so
// fine steps waste reschedules); within two registers of fitting it steps
// by one, because pressure is not locally monotone and a narrow fitting
// window is easy to jump over.
func growII(l *ddg.Loop, m machine.Machine, o *Options, avail, startII, maxII int,
	ls *lifetimes.Set, search *regalloc.Search) (*sched.Schedule, bool) {
	for ii := startII; ii <= maxII; {
		forced, err := o.Workspace.Probe(l, m, &sched.Options{Order: o.Order, MinII: ii})
		if err != nil {
			return nil, false
		}
		lifetimes.ComputeInto(ls, forced)
		search.Reset(ls)
		if search.Fits(avail, o.Strategy) {
			return forced.Clone(), true
		}
		if forced.II > ii {
			ii = forced.II // skip ahead if the scheduler already overshot
		}
		if search.MaxLive() <= avail+2 {
			ii++
		} else {
			ii += 1 + ii/8
		}
	}
	return nil, false
}

// candidate is a spillable value with its profitability score.
type candidate struct {
	op    int
	score float64
}

// candidates returns spillable values, most profitable first: longest
// lifetime per use wins (each use costs a reload, so a long lifetime with
// few uses frees the most register-cycles per added memory operation).
func candidates(l *ddg.Loop, ls *lifetimes.Set, model machine.CycleModel) []candidate {
	rec := l.RecurrenceOps()
	succs := l.Succs()
	// A spill only pays off when the lifetime is clearly longer than the
	// reload path it introduces.
	minLen := model.ArithLat + model.StoreLat + 2
	var out []candidate
	for _, v := range ls.Values {
		op := l.Ops[v.Op]
		if op.Spill || rec[v.Op] || v.Uses == 0 || v.Len <= minLen {
			continue
		}
		// Skip values already fully consumed by spill stores (re-spill).
		allSpill := true
		for _, e := range succs[v.Op] {
			if !l.Ops[e.To].Spill {
				allSpill = false
				break
			}
		}
		if allSpill {
			continue
		}
		out = append(out, candidate{op: v.Op, score: float64(v.Len) / float64(1+v.Uses)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].op < out[j].op
	})
	return out
}

// spillValue rewrites the loop in place: the value of operation def gets a
// spill store, and its non-spill consumers are rerouted through reloads
// (one reload per distinct dependence distance). Returns the number of
// stores and loads added.
func spillValue(l *ddg.Loop, c candidate) (stores, loads int) {
	def := c.op
	defOp := l.Ops[def]

	// Collect the flow edges to reroute. Self edges and edges feeding
	// spill ops stay (recurrence values are excluded by the candidate
	// filter; spill stores must still read the register).
	var reroute []int // indices into l.Edges
	for i, e := range l.Edges {
		if e.From == def && e.To != def && !l.Ops[e.To].Spill {
			reroute = append(reroute, i)
		}
	}
	if len(reroute) == 0 {
		return 0, 0
	}

	newOp := func(kind machine.OpKind, name string) int {
		id := len(l.Ops)
		l.Ops = append(l.Ops, ddg.Op{
			ID:     id,
			Kind:   kind,
			Stride: 0,
			Wide:   defOp.Wide,
			Lanes:  defOp.Lanes,
			Spill:  true,
			Name:   name,
		})
		return id
	}

	st := newOp(machine.Store, fmt.Sprintf("spst%d", def))
	l.Edges = append(l.Edges, ddg.Edge{From: def, To: st, Dist: 0})
	stores = 1

	// One reload per distinct consumer distance.
	reloadAt := map[int]int{}
	for _, ei := range reroute {
		e := l.Edges[ei]
		ld, ok := reloadAt[e.Dist]
		if !ok {
			ld = newOp(machine.Load, fmt.Sprintf("spld%d.%d", def, e.Dist))
			l.Edges = append(l.Edges, ddg.Edge{From: st, To: ld, Dist: e.Dist})
			reloadAt[e.Dist] = ld
			loads++
		}
		l.Edges[ei] = ddg.Edge{From: ld, To: e.To, Dist: 0}
	}
	return stores, loads
}
