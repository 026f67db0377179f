package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// request is one probe of a workload's request sequence.
type request struct {
	endpoint string // count, decide, prob, explain or total
	query    string // "" for total
	class    string // expected admission rung of a count probe: exact, approx or reject
	path     string // URL path and query string
}

// verdict classifies one response.
type verdict uint8

const (
	ok    verdict = iota
	fail          // transport error, timeout, unexpected status
	wrong         // a well-formed answer that disagrees with the oracle
)

// checkFunc judges one response; it must be safe for concurrent use.
type checkFunc func(r request, status int, body []byte) verdict

// sample is one completed request, its times relative to the phase start.
type sample struct {
	req            int // index into the request sequence
	due, sent, end time.Duration
	lat            time.Duration // latency charged to the request (see openLoop)
	bytes          int
	v              verdict
}

// phase is the outcome of one load phase.
type phase struct {
	samples []sample
	late    []float64 // generator lateness per request, ms (open loop)
	elapsed time.Duration
	offered float64   // scheduled requests per second (open loop)
	steal   []float64 // CPU seconds the hypervisor took, per window of the phase
}

func (p *phase) counts() (attempted, failed, wrongs int64) {
	for _, s := range p.samples {
		attempted++
		if s.v != ok {
			failed++
		}
		if s.v == wrong {
			wrongs++
		}
	}
	return
}

// latenciesMS returns each request's latency in ms.
func (p *phase) latenciesMS() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = float64(s.lat) / 1e6
	}
	return out
}

// window is the span over which the hypervisor's steal is read.
const window = 500 * time.Millisecond

// calmWindows returns, per window of the phase, whether it is in the
// calmest quarter: the quarter during which the hypervisor took the
// least CPU from the machine. On a small shared VM the latency of a
// sub-millisecond probe tracks that steal window by window (a half
// second with a tenth of a second stolen has a p99 several times that
// of one with none), so the end-to-end figures are taken over the
// calmest quarter, which makes them repeat across runs. The traced run
// reports the steal share beside them.
func (p *phase) calmWindows() []bool {
	calm := make([]bool, len(p.steal))
	order := make([]int, len(p.steal))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return p.steal[order[a]] < p.steal[order[b]] })
	for _, i := range order[:(len(order)+3)/4] {
		calm[i] = true
	}
	return calm
}

// calmLatenciesMS returns the latencies (ms) of the requests due in the
// calmest windows.
func (p *phase) calmLatenciesMS() []float64 {
	calm := p.calmWindows()
	var out []float64
	for _, s := range p.samples {
		if w := int(s.due / window); w < len(calm) && calm[w] {
			out = append(out, float64(s.lat)/1e6)
		}
	}
	return out
}

// calmThroughput is the mean, over the calmest windows, of the requests
// completed per second in each.
func (p *phase) calmThroughput() float64 {
	calm := p.calmWindows()
	done := make([]float64, len(calm))
	for _, s := range p.samples {
		if w := int(s.end / window); w < len(done) {
			done[w]++
		}
	}
	var rates []float64
	for w, c := range calm {
		if c {
			rates = append(rates, done[w]/window.Seconds())
		}
	}
	return mean(rates)
}

// stealMeter reads the hypervisor's steal at each window boundary of a
// phase, from its start until stop.
type stealMeter struct {
	stop chan struct{}
	done chan []float64
}

func meterSteal() *stealMeter {
	m := &stealMeter{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var per []float64
		prev, _ := stealSeconds()
		tick := time.NewTicker(window)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				m.done <- per
				return
			case <-tick.C:
				now, _ := stealSeconds()
				per = append(per, now-prev)
				prev = now
			}
		}
	}()
	return m
}

// end stops the meter and returns the steal of each whole window.
func (m *stealMeter) end() []float64 {
	close(m.stop)
	return <-m.done
}

// newClient returns an HTTP client holding at most one connection, so a
// phase on n clients uses n connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 20 * time.Second,
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// do sends one request and judges the answer.
func do(c *http.Client, base string, r request, check checkFunc) (verdict, int) {
	resp, err := c.Get(base + r.path)
	if err != nil {
		return fail, 0
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fail, 0
	}
	v := check(r, resp.StatusCode, body)
	if v != ok && loggedFailures.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %s %.80s answered %d: %.300s\n", r.endpoint, r.query, resp.StatusCode, body)
	}
	return v, len(body)
}

// loggedFailures bounds the failing answers echoed to stderr.
var loggedFailures atomic.Int64

// openLoop sends reqs in order, cycling, with Poisson arrivals at rate
// per second for dur, each arrival on one of conns connections chosen at
// random, so each connection carries its own Poisson stream.
//
// A request is timed from its due time: its latency is its queueing
// behind earlier requests on its connection plus its own service time,
// taken from the Lindley recursion over the measured service times
// (start = max(due, previous end); latency = end - due). A stall thus
// delays, and is charged to, every request scheduled behind it. The
// generator's own timer lateness — how much later than its due time,
// or than its connection freeing up, a request actually went out — is
// reported separately instead of being charged to the server: the
// process sleep timer on a small VM overshoots by up to a millisecond.
func openLoop(base string, reqs []request, rate float64, dur time.Duration, conns int, rng *rand.Rand, check checkFunc) *phase {
	var due []time.Duration
	var conn []int
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			break
		}
		due = append(due, time.Duration(t*1e9))
		conn = append(conn, rng.IntN(conns))
	}
	p := &phase{samples: make([]sample, len(due)), late: make([]float64, len(due)), offered: float64(len(due)) / dur.Seconds()}
	meter := meterSteal()
	start := time.Now()
	var wg sync.WaitGroup
	for cn := range conns {
		c := newClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.CloseIdleConnections()
			var end, vend time.Duration // actual and punctual-generator end of the previous request
			for i, d := range due {
				if conn[i] != cn {
					continue
				}
				if wait := d - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				p.late[i] = float64(sent-max(d, end)) / 1e6
				v, n := do(c, base, reqs[i%len(reqs)], check)
				end = time.Since(start)
				vend = max(d, vend) + (end - sent)
				p.samples[i] = sample{req: i % len(reqs), due: d, sent: sent, end: end, lat: vend - d, bytes: n, v: v}
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.steal = meter.end()
	return p
}

// closedLoop sends reqs in order, cycling, on conns connections, each
// sending its next request when the previous answer arrives, for dur.
func closedLoop(base string, reqs []request, dur time.Duration, conns int, check checkFunc) *phase {
	var next atomic.Int64
	var mu sync.Mutex
	p := &phase{}
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	meter := meterSteal()
	start := time.Now()
	var wg sync.WaitGroup
	for range conns {
		c := newClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.CloseIdleConnections()
			var local []sample
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				r := reqs[i%len(reqs)]
				sent := time.Since(start)
				v, n := do(c, base, r, check)
				end := time.Since(start)
				local = append(local, sample{req: i % len(reqs), due: sent, sent: sent, end: end, lat: end - sent, bytes: n, v: v})
			}
			mu.Lock()
			p.samples = append(p.samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.steal = meter.end()
	return p
}
