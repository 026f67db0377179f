package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// This file is the tracer of the traced runs: spans recorded in memory
// around the benchmark's own calls into each layer's public functions,
// written out when the run ends, and reduced to per-layer durations and
// self times. The replay it traces is single-goroutine, so the open
// spans form a stack and a span's parent is the one below it.

// span is one timed call. Times are ns since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a root
	Req    int32  `json:"req"`    // request (or ops batch) the span belongs to
	child  int64  // ns covered by child spans
}

type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int32
	req   int32
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now(), req: -1} }

// begin opens a span and returns its handle (-1 when tracing is off).
func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: t.req})
	id := int32(len(t.spans) - 1)
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
	if s.Parent >= 0 {
		t.spans[s.Parent].child += s.End - s.Start
	}
}

// span times fn as one span.
func (t *tracer) span(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// durations returns the durations of the spans named name, in unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// p50 is the median duration of the spans named name, in unit (0 when
// the replay never reached that call).
func (t *tracer) p50(name string, unit time.Duration) float64 {
	return median(t.durations(name, unit))
}

// layerOf maps a span name to the self-time metric of its layer.
func layerOf(name string) string {
	for _, l := range []struct{ prefix, metric string }{
		{"wire.", "self.wire_render_us"},
		{"server.cache.", "self.server_cache_us"},
		{"server.admission.", "self.server_admission_us"},
		{"query.", "self.query_us"},
		{"repairs.plan.", "self.repairs_plan_us"},
		{"repairs.count", "self.repairs_count_us"},
		{"repairs.delta.", "self.repairs_delta_us"},
		{"repairs.weighted.", "self.repairs_weighted_us"},
		{"core.fpras", "self.core_fpras_us"},
		{"store.", "self.store_us"},
	} {
		if strings.HasPrefix(name, l.prefix) {
			return l.metric
		}
	}
	return "self.request_us"
}

// selfTimes fills each layer's self time — its spans' durations minus
// the part their children cover — averaged over n requests, in µs.
// Set-up spans (request -1) are left out.
func (t *tracer) selfTimes(m metrics, n int) {
	for _, s := range t.spans {
		if s.Req < 0 {
			continue
		}
		m[layerOf(s.Name)] += float64(s.End-s.Start-s.child) / 1e3 / float64(max(n, 1))
	}
	m["trace.spans"] = float64(len(t.spans))
}

// write stores the spans as JSON lines under the checkout's .bench_run.
func (t *tracer) write(e *env, workload string) error {
	dir := filepath.Join(e.root, ".bench_run", "traces")
	if err := mkdir(dir); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-s%d.jsonl", workload, e.seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
