package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repaircount"
)

// This file is the probe plumbing: the bounded slot pool with per-slot
// counter caches, the structured error body and its context-error
// mapping, and the query extraction. Both daemons serve through Server;
// the shard worker (internal/cluster) builds its partial endpoint from
// the same pool and error pieces, so overload and cancellation answer
// alike on every surface.

// ErrOverloaded is returned by Pool.Acquire when QueueDepth probes
// already wait for a slot.
var ErrOverloaded = errors.New("server: probe queue full")

// Slot carries one probe slot's reusable state: counters (and their
// compiled matchers, factorizations and memos) cached per query text,
// invalidated when the substrate epoch moves.
type Slot struct {
	epoch    uint64
	counters map[string]*repaircount.Counter
}

// Counter returns the slot's cached counter for the query text,
// rebuilding via build when absent or when the epoch moved (the
// substrate was replaced). The cache is bounded; a pathological query
// mix resets it rather than growing it.
func (sl *Slot) Counter(epoch uint64, qs string, build func(qs string) (*repaircount.Counter, error)) (*repaircount.Counter, error) {
	if sl.epoch != epoch {
		sl.counters = map[string]*repaircount.Counter{}
		sl.epoch = epoch
	}
	if c, ok := sl.counters[qs]; ok {
		return c, nil
	}
	c, err := build(qs)
	if err != nil {
		return nil, err
	}
	if len(sl.counters) >= 256 {
		sl.counters = map[string]*repaircount.Counter{}
	}
	sl.counters[qs] = c
	return c, nil
}

// Pool is a bounded probe-slot pool with an admission queue: at most
// `workers` probes run at once and at most `depth` wait; beyond that
// Acquire answers ErrOverloaded immediately.
type Pool struct {
	slots   chan *Slot
	depth   int64
	waiting atomic.Int64
}

// NewPool builds a pool of `workers` slots with a waiting queue of
// `depth`.
func NewPool(workers, depth int) *Pool {
	p := &Pool{slots: make(chan *Slot, workers), depth: int64(depth)}
	for i := 0; i < workers; i++ {
		p.slots <- &Slot{counters: map[string]*repaircount.Counter{}}
	}
	return p
}

// Acquire takes a probe slot, answering ErrOverloaded when the queue is
// full, and ctx.Err() when the deadline expires first.
func (p *Pool) Acquire(ctx context.Context) (*Slot, error) {
	select {
	case sl := <-p.slots:
		return sl, nil
	default:
	}
	if p.waiting.Add(1) > p.depth {
		p.waiting.Add(-1)
		return nil, ErrOverloaded
	}
	defer p.waiting.Add(-1)
	select {
	case sl := <-p.slots:
		return sl, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Release returns a slot to the pool.
func (p *Pool) Release(sl *Slot) { p.slots <- sl }

// APIError is the structured error body: {"error": {"code": ..., ...}}.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Admission details on budget_exceeded.
	PlannedCost string `json:"planned_cost,omitempty"`
	ExactBudget int64  `json:"exact_budget,omitempty"`
	SampleBound string `json:"sample_bound,omitempty"`
	MaxSamples  int64  `json:"max_samples,omitempty"`
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"encoding failed"}}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	w.Write([]byte("\n"))
}

// WriteErr writes a structured error response.
func WriteErr(w http.ResponseWriter, status int, e APIError) {
	WriteJSON(w, status, map[string]APIError{"error": e})
}

// WriteResult writes one successful probe result: the bare rendered
// value as text/plain when the request asked for format=text, the JSON
// body otherwise. An empty text form means the endpoint has no text
// rendering and always answers JSON. Every handler tail in the
// pipeline funnels through here so the two response shapes cannot
// drift.
func WriteResult(w http.ResponseWriter, r *http.Request, text string, body map[string]any) {
	if text != "" && r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintf(w, "%s\n", text)
		return
	}
	WriteJSON(w, http.StatusOK, body)
}

// WriteCtxErr answers a probe whose context ended: 504
// deadline_exceeded when its wall-clock budget (deadline) ran out, 499
// canceled when the client went away (the status is never seen).
func WriteCtxErr(w http.ResponseWriter, ctx context.Context, deadline time.Duration) {
	if ctx.Err() == context.DeadlineExceeded {
		WriteErr(w, http.StatusGatewayTimeout, APIError{Code: "deadline_exceeded",
			Message: fmt.Sprintf("probe exceeded the %s deadline", deadline)})
		return
	}
	WriteErr(w, 499, APIError{Code: "canceled", Message: "client canceled the probe"})
}

// probeQuery extracts the query text from ?q= or a JSON {"query": ...}
// body.
func probeQuery(r *http.Request) (string, error) {
	if q := r.URL.Query().Get("q"); q != "" {
		return q, nil
	}
	if r.Body != nil && r.Method == http.MethodPost {
		var body struct {
			Query string `json:"query"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err == nil && body.Query != "" {
			return body.Query, nil
		}
	}
	return "", fmt.Errorf("missing query: pass ?q= or a JSON body {\"query\": ...}")
}
