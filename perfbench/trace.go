package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef is an open span, returned by begin and closed by end.
type spanRef struct {
	id, parent, req int64
	name            string
	start           time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing switched off: begin and end cost nothing.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, req int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{id: t.next.Add(1), parent: parent, req: req, name: name, start: time.Since(t.t0)}
}

func (t *tracer) end(s spanRef) {
	if t == nil {
		return
	}
	e := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
		Start: int64(s.start), End: int64(e)})
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations of every span with one of the names.
func (t *tracer) durations(names ...string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, time.Duration(s.End-s.Start))
			}
		}
	}
	return out
}

// total sums the durations of the named spans.
func (t *tracer) total(names ...string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(names...) {
		sum += d
	}
	return sum
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write stores the spans and the derived self times as JSON.
func (t *tracer) write(path string) error {
	self := map[string]int64{}
	for n, d := range t.selfTimes() {
		self[n] = int64(d)
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans  []span           `json:"spans"`
		SelfNS map[string]int64 `json:"self_ns"`
	}{t.spans, self})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSelf prints the self time per span name, largest first.
func (t *tracer) printSelf(w io.Writer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(w, "# self %-32s %10.3f ms\n", n, ms(self[n]))
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the median of an even count averages the middle pair).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// msOf converts durations to milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// usOf converts durations to microseconds.
func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// readMetric reads one runtime/metrics uint64 sample.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// liveHeapMB forces collections and reports the live heap they left. The
// second collection also drops what the first moved to sync.Pool victim
// caches, which would otherwise count by chance.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	return float64(readMetric("/gc/heap/live:bytes")) / 1e6
}
