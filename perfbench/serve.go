package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/faultproxy"
	"repro/internal/perfcost"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// serveWorkloads are preloaded on both backends; serveCells is the design
// space the generator queries.
var (
	serveWorkloads = []string{workload.Default, "kernels"}
	serveCells     = sweep.DesignSpace(8)
)

// serveSLO is the p99 limit of the rate ladder.
const serveSLO = 10 * time.Millisecond

// serveSizes are the serve-route knobs; tiny mode shrinks them.
type serveSizes struct {
	loops      int           // backend workbench size
	rate       float64       // steady arrival rate, per second
	ladder     []float64     // rates tried for eval_rate_at_slo_rps
	sweepEvery int           // one request in sweepEvery is a sweep
	outage     time.Duration // how long the default primary stays dead
	settle     time.Duration // after restore, excluded from the steady sample
}

func serveSizesFor(o options) serveSizes {
	if o.tiny {
		return serveSizes{loops: 8, rate: 200, ladder: []float64{200, 400}, sweepEvery: 50,
			outage: 400 * time.Millisecond, settle: 200 * time.Millisecond}
	}
	return serveSizes{loops: 40, rate: 1000, ladder: []float64{1000, 1500, 2000, 2500, 3000, 4000},
		sweepEvery: 250, outage: 1500 * time.Millisecond, settle: time.Second}
}

// reference holds the expected answer to every query, computed in process
// by a separate engine per workload: refs[wl][cell].
type reference [][]serve.EvalResponse

// buildReference evaluates every cell on fresh in-process engines and
// times Engine.Evaluate once the engine is warm.
func buildReference(o options, sz serveSizes) (reference, []float64, error) {
	ref := make(reference, len(serveWorkloads))
	var evalUS []float64
	for wi, name := range serveWorkloads {
		w, err := workload.Build(name, sz.loops, 0)
		if err != nil {
			return nil, nil, err
		}
		eng := perfcost.NewFromWorkload(w, nil)
		eng.EvaluateMany(serveCells)
		for _, c := range serveCells {
			t0 := time.Now()
			p := eng.Evaluate(c.Config, c.Regs, c.Partitions)
			evalUS = append(evalUS, us(time.Since(t0)))
			ref[wi] = append(ref[wi], serve.EvalResponse{
				Workload: w.Name,
				Point: serve.Point{
					Label: p.Label(), Config: p.Config.String(), Regs: p.Regs, Partitions: p.Partitions,
					Tc: p.Tc, Z: p.Z, Cycles: p.Cycles, Time: p.Time, Area: p.Area, OK: p.OK,
					Failures: p.Failures, Spilled: p.SpilledLoops, SpillOps: p.SpillOps,
					Speedup: eng.Speedup(p),
				},
				PeakSpeedup: eng.PeakSpeedup(c.Config),
			})
		}
	}
	return ref, evalUS, nil
}

// sweepRequest asks for every cell of the design space.
func sweepRequest(wl string) serve.SweepRequest {
	req := serve.SweepRequest{Workload: wl}
	for _, c := range serveCells {
		req.Cells = append(req.Cells, serve.SweepCell{Config: c.Config.String(), Regs: c.Regs, Partitions: c.Partitions})
	}
	return req
}

// routerLog timestamps the router's log lines, which mark when it drained
// a backend and when a prewarm fan-out completed.
type routerLog struct {
	mu    sync.Mutex
	lines []logLine
}

type logLine struct {
	at  time.Time
	msg string
}

func (l *routerLog) logf(format string, args ...any) {
	line := logLine{time.Now(), fmt.Sprintf(format, args...)}
	l.mu.Lock()
	l.lines = append(l.lines, line)
	l.mu.Unlock()
}

// wait returns the time of the first line after since that contains every
// part, polling until timeout.
func (l *routerLog) wait(since time.Time, timeout time.Duration, parts ...string) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	for {
		l.mu.Lock()
		for _, line := range l.lines {
			if line.at.Before(since) {
				continue
			}
			match := true
			for _, p := range parts {
				match = match && strings.Contains(line.msg, p)
			}
			if match {
				l.mu.Unlock()
				return line.at, nil
			}
		}
		l.mu.Unlock()
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("router never logged %q within %s", strings.Join(parts, " … "), timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cluster is the serving fleet: two backends, each behind a fault proxy,
// and a router at R=2 in front, all on loopback in this process.
type cluster struct {
	servers  []*serve.Server
	proxies  []*faultproxy.Proxy
	backends []string // router-side addresses: the proxies
	direct   []string // the backends themselves
	router   *fleet.Router
	front    string
	log      *routerLog
	wg       sync.WaitGroup
}

// startCluster brings the fleet up and warms every cell on both backends.
func startCluster(o options, sz serveSizes) (*cluster, error) {
	c := &cluster{log: &routerLog{}}
	if err := c.start(o, sz); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) start(o options, sz serveSizes) error {
	for range 2 {
		srv, err := serve.New(serve.Options{Loops: sz.loops, Preload: serveWorkloads})
		if err != nil {
			return err
		}
		c.servers = append(c.servers, srv)
		addr, err := c.listen(srv.Serve)
		if err != nil {
			return err
		}
		p, err := faultproxy.New(addr)
		if err != nil {
			return err
		}
		c.proxies = append(c.proxies, p)
		c.backends = append(c.backends, "http://"+p.Addr())
		c.direct = append(c.direct, "http://"+addr)
	}
	ctx := context.Background()
	for _, base := range c.direct {
		cl := serve.NewClient(base)
		for _, wl := range serveWorkloads {
			if _, err := cl.Sweep(ctx, sweepRequest(wl)); err != nil {
				return err
			}
			// Evals also warm the peak speed-ups a sweep does not compute.
			for _, cell := range serveCells {
				if _, err := cl.Eval(ctx, evalRequest(wl, cell)); err != nil {
					return err
				}
			}
		}
	}
	start := time.Now()
	var err error
	c.router, err = fleet.New(fleet.Options{Backends: c.backends, Replication: 2,
		ProbeInterval: 200 * time.Millisecond, Logf: c.log.logf})
	if err != nil {
		return err
	}
	addr, err := c.listen(c.router.Serve)
	if err != nil {
		return err
	}
	c.front = "http://" + addr
	_, err = c.log.wait(start, 30*time.Second, "prewarm fan-out complete")
	return err
}

// listen serves on a fresh loopback port until close.
func (c *cluster) listen(serveFn func(net.Listener) error) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		serveFn(l)
	}()
	return l.Addr().String(), nil
}

// close stops the router first (its prewarm goroutines talk through the
// proxies), then the proxies and backends, and waits for every server.
func (c *cluster) close() {
	if c.router != nil {
		c.router.Close()
	}
	for _, p := range c.proxies {
		p.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	c.wg.Wait()
}

func (c *cluster) stats() (fleet.StatsResponse, error) {
	var st fleet.StatsResponse
	resp, err := http.Get(c.front + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// waitHealthy polls the router until every backend is healthy.
func (c *cluster) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.stats()
		if err == nil && st.Fleet.BackendsHealthy == len(c.backends) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("backends healthy %d of %d after %s (%v)", st.Fleet.BackendsHealthy, len(c.backends), timeout, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func evalRequest(wl string, c sweep.Cell) serve.EvalRequest {
	return serve.EvalRequest{Workload: wl, Config: c.Config.String(), Regs: c.Regs, Partitions: c.Partitions}
}

// sender issues arrivals against a target and checks every answer
// against the reference. With a tracer, each request runs under a span
// carrying its request id.
func sender(t *target, ref reference, tr *tracer, prefix string) func(a arrival, req int64) error {
	ctx := context.Background()
	return func(a arrival, req int64) error {
		cl, wl := t.clients[a.tenant], serveWorkloads[a.wl]
		if !a.sweep {
			sp := tr.begin(prefix+".eval", 0, req)
			got, err := cl.Eval(ctx, evalRequest(wl, serveCells[a.cell]))
			tr.end(sp)
			if err != nil {
				return err
			}
			if want := ref[a.wl][a.cell]; got != want {
				return fmt.Errorf("eval %s %s: served %+v, reference %+v", wl, serveCells[a.cell].Label(), got, want)
			}
			return nil
		}
		sp := tr.begin(prefix+".sweep", 0, req)
		n := 0
		err := cl.SweepStream(ctx, sweepRequest(wl), func(p serve.Point) error {
			if n >= len(serveCells) || p != ref[a.wl][n].Point {
				return fmt.Errorf("sweep %s point %d differs from the reference", wl, n)
			}
			n++
			return nil
		})
		tr.end(sp)
		if err == nil && n != len(serveCells) {
			err = fmt.Errorf("sweep %s streamed %d of %d points", wl, n, len(serveCells))
		}
		return err
	}
}

// phaseResult summarizes one open-loop phase.
type phaseResult struct {
	evals, failover  []float64 // eval latencies in ms: steady, and due in the outage
	sweepCells       float64   // cells streamed by steady sweeps
	sweepSeconds     float64   // their summed service time
	lags             []float64 // generator lag in ms
	backlog, errs    int
	sent             int
	allocPerRequestB float64
}

// Due-time classes of a phase's requests.
const (
	steadyClass = iota
	failoverClass
	skipClass
)

// steadyOnly classes every request as steady.
func steadyOnly(time.Duration) int { return steadyClass }

// runPhase drives one open-loop phase and sorts its outcomes by the class
// of their due time.
func runPhase(rep *report, arr []arrival, conns int, send func(arrival, int64) error,
	start time.Time, class func(due time.Duration) int) phaseResult {
	a0 := allocBytes()
	outs, backlog := openLoop(start, arr, conns, send)
	pr := phaseResult{backlog: backlog, sent: len(arr),
		allocPerRequestB: float64(allocBytes()-a0) / float64(max(len(arr), 1))}
	for i, out := range outs {
		rep.op(out.err)
		if out.err != nil {
			pr.errs++
			continue
		}
		pr.lags = append(pr.lags, ms(out.lag))
		switch cl := class(arr[i].due); {
		case cl != steadyClass && cl != failoverClass:
		case arr[i].sweep && cl == steadyClass:
			pr.sweepCells += float64(len(serveCells))
			pr.sweepSeconds += out.svc.Seconds()
		case arr[i].sweep:
		case cl == failoverClass:
			pr.failover = append(pr.failover, ms(out.lat))
		default:
			pr.evals = append(pr.evals, ms(out.lat))
		}
	}
	return pr
}

// runServeRoute measures the router-fronted fleet under open-loop load:
// a steady phase at a fixed rate during which the default workload's
// primary dies and comes back, then a ladder of rising rates.
func runServeRoute(o options, work string, rep *report) error {
	sz := serveSizesFor(o)
	conns := runtime.GOMAXPROCS(0)
	ref, evalUS, err := buildReference(o, sz)
	if err != nil {
		return err
	}
	var c *cluster
	var setups []float64
	for range 5 {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		if c, err = startCluster(o, sz); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.close()
	rep.set("setup_s", median(setups))
	rep.set("perfcost.evaluate_us", median(evalUS))

	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	rng := rand.New(rand.NewPCG(uint64(o.seed), 0x5e7e))
	routed := newTarget(c.front, conns)
	defer routed.tr.CloseIdleConnections()
	before, err := c.stats()
	if err != nil {
		return err
	}
	primary := before.Fleet.Replicas[workload.Default]
	if len(primary) != 2 {
		return fmt.Errorf("replica map for %s is %v, want two replicas", workload.Default, primary)
	}
	var proxy *faultproxy.Proxy
	for i, b := range c.backends {
		if b == primary[0] {
			proxy = c.proxies[i]
		}
	}

	// Steady phase with an outage of the default primary at its midpoint.
	dur := time.Duration(0.6 * seconds * float64(time.Second))
	arr := poissonArrivals(rng, sz.rate, dur, sz.sweepEvery)
	killAt := dur / 2
	restoreAt := killAt + sz.outage
	start := time.Now()
	var killed, restored time.Time
	faults := make(chan struct{})
	go func() {
		defer close(faults)
		time.Sleep(time.Until(start.Add(killAt)))
		killed = time.Now()
		proxy.Set(faultproxy.Config{Mode: faultproxy.Refuse})
		proxy.CloseActive()
		time.Sleep(time.Until(start.Add(restoreAt)))
		restored = time.Now()
		proxy.Set(faultproxy.Config{Mode: faultproxy.Pass})
	}()
	steady := runPhase(rep, arr, conns, sender(routed, ref, nil, "route"), start, func(due time.Duration) int {
		switch {
		case due < killAt || due >= restoreAt+sz.settle:
			return steadyClass
		case due < restoreAt:
			return failoverClass
		}
		return skipClass
	})
	<-faults
	detected, err := c.log.wait(killed, 5*time.Second, "backend "+primary[0]+" unhealthy")
	rep.check("router drains the killed primary", err)
	if err == nil {
		rep.set("fleet.detect_ms", ms(detected.Sub(killed)))
	}
	rep.check("killed primary rejoins", c.waitHealthy(10*time.Second))
	_, err = c.log.wait(restored, 10*time.Second, "prewarm fan-out complete")
	rep.check("rejoin prewarm completes", err)

	lagP99 := quantile(steady.lags, 0.99)
	rep.set("loadgen.lag_p99_ms", lagP99)
	rep.set("loadgen.sent", float64(steady.sent))
	rep.set("loadgen.samples", float64(len(steady.evals)))
	// A generator that falls as far behind as the latency limit measures
	// its own scheduling, not the fleet.
	if lagP99 > serveSLO.Seconds()*1e3 {
		rep.check("load generator kept to its schedule",
			fmt.Errorf("generator lag p99 %.2f ms: the run is invalid, not a latency", lagP99))
	}
	rep.set("op_p50_ms", median(steady.evals))
	rep.set("eval_p50_ms", median(steady.evals))
	rep.set("eval_p99_ms", quantile(steady.evals, 0.99))
	rep.set("failover_p99_ms", quantile(steady.failover, 0.99))
	rep.set("op_alloc_mb", steady.allocPerRequestB/1e6)
	if steady.sweepSeconds > 0 {
		rep.set("sweep_cells_per_s", steady.sweepCells/steady.sweepSeconds)
	}

	// Rate ladder: the highest rate whose p99 meets the limit without a
	// growing backlog.
	best := 0.0
	step := time.Duration(0.4 * seconds * float64(time.Second) / float64(len(sz.ladder)))
	for _, rate := range sz.ladder {
		arr := poissonArrivals(rng, rate, step, sz.sweepEvery)
		pr := runPhase(rep, arr, conns, sender(routed, ref, nil, "route"), time.Now(), steadyOnly)
		if pr.errs > 0 || pr.backlog > 2*conns || quantile(pr.evals, 0.99) > serveSLO.Seconds()*1e3 {
			break
		}
		best = rate
	}
	rep.set("eval_rate_at_slo_rps", best)
	rep.set("live_heap_mb", liveHeapMB())

	after, err := c.stats()
	if err != nil {
		return err
	}
	serveCounters(rep, before, after)

	if o.trace {
		if err := tracedServe(o, rep, c, ref, rng, sz, conns); err != nil {
			return err
		}
	}
	return nil
}

// serveCounters records the router's and backends' counter deltas and
// asserts what the outage must leave untouched: no request served outside
// its replica set, no engine built cold, nothing recomputed.
func serveCounters(rep *report, before, after fleet.StatsResponse) {
	b, a := before.Fleet, after.Fleet
	rep.set("fleet.retries", float64(a.Retries-b.Retries))
	rep.set("fleet.hedges", float64(a.Hedges-b.Hedges))
	rep.set("fleet.failovers", float64(a.Failovers-b.Failovers))
	rep.set("fleet.rehashes", float64(a.Rehashes-b.Rehashes))
	rep.set("fleet.prewarms_cold", float64(a.PrewarmsCold-b.PrewarmsCold))
	rep.set("fleet.unavailable", float64(a.Unavailable-b.Unavailable))
	rep.check("outage rehashes nothing", equalInt("fleet.rehashes", 0, a.Rehashes-b.Rehashes))
	rep.check("outage finds the standby warm", equalInt("fleet.prewarms_cold", 0, a.PrewarmsCold-b.PrewarmsCold))
	if a.Failovers == b.Failovers {
		rep.check("outage fails over", errors.New("no request was served by the standby"))
	}

	var hits, misses, builds, evictions, computes, widen, peak, disk, diskMiss int64
	sum := func(st fleet.StatsResponse, sign int64) {
		for _, be := range st.Backends {
			if be.Stats == nil {
				rep.check("backend stats scraped", fmt.Errorf("%s: %s", be.Addr, be.Health))
				continue
			}
			s := be.Stats
			hits, misses, builds, evictions = hits+sign*s.Hits, misses+sign*s.Misses, builds+sign*s.Builds, evictions+sign*s.Evictions
			for _, e := range s.Engines {
				computes += sign * e.SuiteComputes
				widen += sign * e.WidenComputes
				peak += sign * e.PeakComputes
				disk += sign * e.DiskHits
				diskMiss += sign * e.DiskMisses
			}
		}
	}
	sum(after, 1)
	sum(before, -1)
	rep.set("serve.manager_hits", float64(hits))
	rep.set("serve.manager_misses", float64(misses))
	rep.set("serve.manager_builds", float64(builds))
	rep.set("serve.manager_evictions", float64(evictions))
	rep.set("perfcost.suite_computes", float64(computes))
	rep.set("perfcost.widen_computes", float64(widen))
	rep.set("perfcost.peak_computes", float64(peak))
	rep.set("perfcost.disk_hits", float64(disk))
	rep.set("perfcost.disk_misses", float64(diskMiss))
	rep.check("serving computes nothing", equalInt("engine computes", 0, computes+widen+peak))
	rep.check("serving builds no engine", equalInt("serve.manager_builds", 0, builds))
}

// tracedServe replays the steady load twice more: routed with a span per
// request, for the tracing overhead, and straight to one backend, for the
// router's share of the latency.
func tracedServe(o options, rep *report, c *cluster, ref reference, rng *rand.Rand, sz serveSizes, conns int) error {
	dur := time.Duration(o.seconds / 4 * float64(time.Second))
	arr := poissonArrivals(rng, sz.rate, dur, sz.sweepEvery)
	routed := newTarget(c.front, conns)
	defer routed.tr.CloseIdleConnections()
	traced := runPhase(rep, arr, conns, sender(routed, ref, rep.tr, "route"), time.Now(), steadyOnly)
	rep.set("trace.overhead_op_p50_ms", median(traced.evals)-rep.values["op_p50_ms"])

	direct := newTarget(c.direct[0], conns)
	defer direct.tr.CloseIdleConnections()
	pr := runPhase(rep, arr, conns, sender(direct, ref, nil, "direct"), time.Now(), steadyOnly)
	rep.set("serve.eval_direct_p50_ms", median(pr.evals))
	rep.set("fleet.router_hop_ms", rep.values["op_p50_ms"]-median(pr.evals))
	return nil
}
