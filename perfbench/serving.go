package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repaircount/internal/server"
)

// This file holds what the serving workloads share: repeated set-up up to
// the first correct answer, the in-process reference daemon, and the
// measured open- and closed-loop phases with their metrics.

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

// conns is the connection count of every load phase: one per core.
func conns() int { return runtime.NumCPU() }

// setupRepeated runs setup setupRuns times; every instance but the last
// is torn down. It returns the last instance and the median setup time.
func setupRepeated[T any](setup func(i int) (T, error), teardown func(T)) (T, float64, error) {
	var secs []float64
	var last T
	for i := range setupRuns {
		t0 := time.Now()
		s, err := setup(i)
		if err != nil {
			return last, 0, fmt.Errorf("setup %d: %w", i, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			teardown(s)
		}
		last = s
	}
	return last, median(secs), nil
}

// firstAnswer polls the daemon with one probe until it answers 200 and
// check accepts the body.
func firstAnswer(base string, r request, check func(body []byte) error) error {
	c := newClient()
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	var last error
	for time.Now().Before(deadline) {
		resp, err := c.Get(base + r.path)
		if err == nil {
			var body []byte
			body, err = readAll(resp)
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
			}
			if err == nil {
				if err = check(body); err == nil {
					return nil
				}
				return fmt.Errorf("first answer to %s is wrong: %w", r.path, err)
			}
		}
		last = err
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("no answer to %s within 60s: %v", r.path, last)
}

// countField extracts the "count" of a count response.
func countField(body []byte) (string, error) {
	var v struct {
		Count string `json:"count"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return "", err
	}
	return v.Count, nil
}

// expectCount is a first-answer check for a known exact count.
func expectCount(want string) func([]byte) error {
	return func(body []byte) error {
		got, err := countField(body)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("count %.20s…, want %.20s…", got, want)
		}
		return nil
	}
}

// reference is an in-process daemon over the same files, serving the
// answers the real process is compared with.
type reference struct {
	s *server.Server
	h http.Handler
}

func newReference(cfg server.Config) (*reference, error) {
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	return &reference{s: s, h: s.Handler()}, nil
}

// serve answers one request in-process.
func (ref *reference) serve(r request) (int, []byte) {
	rec := httptest.NewRecorder()
	ref.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, r.path, nil))
	return rec.Code, rec.Body.Bytes()
}

func (ref *reference) close() { ref.s.Close() }

// loadPhases runs the open-loop phase at rate and then the closed-loop
// saturation phase, splitting the run's seconds between them.
func loadPhases(e *env, base string, seq []request, rate float64, check checkFunc) (open, closed *phase) {
	half := time.Duration(e.seconds / 2 * float64(time.Second))
	open = openLoop(base, seq, rate, half, conns(), rngFor(e.seed, 99), check)
	closed = closedLoop(base, seq, half, conns(), check)
	return open, closed
}

// endToEnd fills the end-to-end metrics common to the serving workloads.
func endToEnd(m metrics, setup float64, open, closed *phase, rssMB float64) {
	m["setup_s"] = setup
	m["latency_p50_ms"] = quantile(open.calmLatenciesMS(), 0.5)
	m["throughput_per_s"] = closed.calmThroughput()
	m["rss_mb"] = rssMB
}

// tally sums attempts and failures over phases.
func tally(phases ...*phase) (attempted, failed, wrongs int64) {
	for _, p := range phases {
		a, f, w := p.counts()
		attempted, failed, wrongs = attempted+a, failed+f, wrongs+w
	}
	return
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}
