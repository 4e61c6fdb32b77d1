package main

import (
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// arrival is one request of an open-loop schedule.
type arrival struct {
	// due is when the request is due, from the start of its phase.
	due time.Duration
	// sweep marks a streamed POST /v1/sweep over every cell; otherwise
	// the request is a GET /v1/eval of one cell.
	sweep  bool
	wl     int // index into serveWorkloads
	cell   int // index into serveCells
	tenant int // index into tenants
}

// outcome is what became of one arrival.
type outcome struct {
	// lat runs from the due time to the response's last byte, so a stall
	// also charges the requests queued behind it; svc runs from the send.
	lat, svc time.Duration
	// lag is how late the generator dispatched the request.
	lag time.Duration
	err error
}

// tenants are the X-Tenant values the generator alternates between.
var tenants = []string{"alpha", "beta"}

// poissonArrivals draws a seeded open-loop schedule: exponential gaps at
// rate per second for dur. Three requests in four query the default
// workload; every sweepEvery-th request is a streamed sweep.
func poissonArrivals(rng *rand.Rand, rate float64, dur time.Duration, sweepEvery int) []arrival {
	var out []arrival
	t := 0.0
	for i := 1; ; i++ {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		a := arrival{due: time.Duration(t * float64(time.Second)), sweep: i%sweepEvery == 0,
			cell: rng.IntN(len(serveCells)), tenant: rng.IntN(len(tenants))}
		if rng.Float64() >= 0.75 {
			a.wl = 1
		}
		out = append(out, a)
	}
}

// openLoop sends every arrival at its due time, measured from start, over
// conns workers (one connection each at most), whether or not earlier
// requests have finished. It returns each arrival's outcome and how many
// requests were still queued when the last one was due.
func openLoop(start time.Time, arrivals []arrival, conns int, send func(a arrival, req int64) error) ([]outcome, int) {
	out := make([]outcome, len(arrivals))
	queue := make(chan int, len(arrivals)) // one slot per send: dispatch never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				sent := time.Now()
				err := send(arrivals[i], int64(i+1))
				done := time.Now()
				out[i].lat = done.Sub(start) - arrivals[i].due
				out[i].svc = done.Sub(sent)
				out[i].err = err
			}
		}()
	}
	for i, a := range arrivals {
		if d := a.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		out[i].lag = time.Since(start) - a.due
		queue <- i
	}
	backlog := len(queue)
	close(queue)
	wg.Wait()
	return out, backlog
}

// tenantTransport names the tenant on every request it carries.
type tenantTransport struct {
	tenant string
	next   http.RoundTripper
}

func (t tenantTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(serve.TenantHeader, t.tenant)
	return t.next.RoundTrip(r)
}

// target is one server the generator talks to: a client per tenant over
// one transport holding at most conns connections.
type target struct {
	tr      *http.Transport
	clients []*serve.Client
}

func newTarget(base string, conns int) *target {
	t := &target{tr: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	for _, name := range tenants {
		hc := &http.Client{Transport: tenantTransport{name, t.tr}, Timeout: 30 * time.Second}
		t.clients = append(t.clients, serve.NewClientHTTP(base, hc))
	}
	return t
}
