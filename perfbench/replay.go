package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repaircount"
	"repaircount/internal/relational"
	"repaircount/internal/server"
	"repaircount/internal/store"
	"repaircount/internal/workload"
)

// pipeline replays a serving workload in-process through the same public
// pieces the daemon's handlers are built from — ProbeCache, Ladder,
// Snapshot.Counter, Counter.Count*/ProbabilityOf/Approximate*, the
// journal and the compactor — with a span around each call, so every
// layer's share of a probe can be read off the trace.
type pipeline struct {
	t            *tracer
	path         string
	snap         *repaircount.Snapshot
	baseLen      int64
	epoch        uint64
	cache        *server.ProbeCache
	ladder       server.Ladder
	weights      map[string]float64
	seed         uint64
	compactBytes int64
	req          *http.Request

	recountUS                  []float64 // warm recounts: the counter outlived a version bump
	fprasSamples, fprasSeconds float64
	journalBytes, journalOps   int64
	facts                      int
}

// replayConfig describes the daemon a pipeline mirrors.
type replayConfig struct {
	ladder       server.Ladder
	weights      map[string]float64
	compactBytes int64 // 0: no compaction
}

// newPipeline writes the instance to a snapshot of its own under dir
// and opens it, timing both.
func newPipeline(t *tracer, dir string, db *relational.Database, ks *relational.KeySet, cfg replayConfig) (*pipeline, error) {
	if err := mkdir(dir); err != nil {
		return nil, err
	}
	p := &pipeline{
		t: t, path: filepath.Join(dir, "replay.cqs"), cache: server.NewProbeCache(server.DefaultCacheEntries),
		ladder: cfg.ladder, weights: cfg.weights, seed: 1, compactBytes: cfg.compactBytes,
		req: httptest.NewRequest(http.MethodGet, "/v1/probe", nil), facts: db.Len(),
	}
	var err error
	t.span("store.build", func() { err = store.WriteFile(p.path, db, ks) })
	if err != nil {
		return nil, err
	}
	t.span("store.open", func() { p.snap, err = repaircount.OpenSnapshot(p.path) })
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(p.path)
	if err != nil {
		p.snap.Close()
		return nil, err
	}
	p.baseLen = st.Size()
	return p, nil
}

func (p *pipeline) close() { p.snap.Close() }

// build is the cache's counter constructor: parse, then plan.
func (p *pipeline) build(qs string) (*repaircount.Counter, error) {
	var q repaircount.Formula
	var c *repaircount.Counter
	var err error
	p.t.span("query.parse", func() { q, err = repaircount.ParseQuery(qs) })
	if err != nil {
		return nil, err
	}
	p.t.span("repairs.plan.counter_build", func() { c, err = p.snap.Counter(q) })
	return c, err
}

// render writes the response the daemon would.
func (p *pipeline) render(text string, body map[string]any) {
	p.t.span("wire.render", func() { server.WriteResult(httptest.NewRecorder(), p.req, text, body) })
}

func (p *pipeline) renderErr(status int, e server.APIError) int {
	p.t.span("wire.render", func() { server.WriteErr(httptest.NewRecorder(), status, e) })
	return status
}

// serve answers one probe as the daemon's handler would and returns the
// status.
func (p *pipeline) serve(r request) int {
	root := p.t.begin("request")
	defer p.t.end(root)
	ctx := context.Background()
	version := p.snap.Version()
	if r.endpoint == "total" {
		var str string
		p.t.span("server.cache.total", func() { _, str = p.cache.Total(p.epoch, version, p.snap.TotalRepairs) })
		p.render(str, map[string]any{"total": str, "version": version, "epoch": p.epoch})
		return http.StatusOK
	}
	built := false
	var ent *server.CacheEntry
	var err error
	p.t.span("server.cache.acquire", func() {
		ent, err = p.cache.Acquire(ctx, p.epoch, r.query, func(qs string) (*repaircount.Counter, error) {
			built = true
			return p.build(qs)
		})
	})
	if err != nil {
		return p.renderErr(http.StatusBadRequest, server.APIError{Code: "bad_query", Message: err.Error()})
	}
	defer p.cache.Release(ent)
	c := ent.Counter()
	switch r.endpoint {
	case "decide":
		res, ok := ent.Result(server.ResultDecide, p.epoch, version)
		if !ok {
			p.t.span("repairs.count.decide", func() { res.Entailed = c.Decide() })
			res.Str = fmt.Sprint(res.Entailed)
			ent.StoreResult(server.ResultDecide, p.epoch, version, res)
		}
		p.render(res.Str, map[string]any{"entailed": res.Entailed, "version": version, "epoch": p.epoch})
	case "explain":
		var adm server.Admission
		p.t.span("server.admission.price", func() { adm = p.ladder.PriceEntry(ent, c, p.epoch, version) })
		p.render("", map[string]any{"admission": adm.Mode, "engine": adm.Engine.String(), "version": version, "epoch": p.epoch})
	case "prob":
		return p.prob(ent, c, version)
	case "count":
		return p.count(ctx, ent, c, version, built)
	}
	return http.StatusOK
}

func (p *pipeline) prob(ent *server.CacheEntry, c *repaircount.Counter, version uint64) int {
	res, ok := ent.Result(server.ResultProb, p.epoch, version)
	if !ok {
		var plan *repaircount.Plan
		var err error
		p.t.span("repairs.plan.explain", func() { plan, err = c.ExplainPlan(repaircount.EngineCompile) })
		if err != nil || plan.Engine == repaircount.EngineEnumFO || (!plan.AlwaysTrue && plan.Budget > p.ladder.ExactBudget) {
			return p.renderErr(http.StatusTooManyRequests, server.APIError{Code: "budget_exceeded"})
		}
		var iv repaircount.Interval
		p.t.span("repairs.weighted.prob", func() { iv, err = c.ProbabilityOf(c.FactWeights(p.weights)) })
		if err != nil {
			return p.renderErr(http.StatusTooManyRequests, server.APIError{Code: "budget_exceeded", Message: err.Error()})
		}
		res = server.CachedResult{Lo: iv.Lo, Hi: iv.Hi, Str: iv.String()}
		ent.StoreResult(server.ResultProb, p.epoch, version, res)
	}
	p.render(res.Str, map[string]any{"prob_lo": res.Lo, "prob_hi": res.Hi, "prob": res.Str, "version": version, "epoch": p.epoch})
	return http.StatusOK
}

func (p *pipeline) count(ctx context.Context, ent *server.CacheEntry, c *repaircount.Counter, version uint64, built bool) int {
	exact := func(res server.CachedResult) int {
		p.render(res.Str, map[string]any{"mode": "exact", "count": res.Str, "engine": res.Engine.String(), "version": version, "epoch": p.epoch})
		return http.StatusOK
	}
	if res, ok := ent.Result(server.ResultCount, p.epoch, version); ok {
		return exact(res)
	}
	var fp string
	var fpOK bool
	p.t.span("repairs.plan.fingerprint", func() { fp, fpOK = c.CountFingerprint() })
	if fpOK {
		var res server.CachedResult
		var ok bool
		p.t.span("server.cache.fp", func() { res, ok = p.cache.ResultByFP(server.ResultCount, fp, p.epoch, version) })
		if ok {
			ent.StoreResult(server.ResultCount, p.epoch, version, res)
			return exact(res)
		}
	}
	var adm server.Admission
	p.t.span("server.admission.price", func() { adm = p.ladder.PriceEntry(ent, c, p.epoch, version) })
	if adm.Mode == server.AdmitExact {
		t0 := time.Now()
		var res server.CachedResult
		var err error
		p.t.span("repairs.count", func() { res.N, res.Engine, err = c.CountCtx(ctx, 1) })
		if !built {
			p.recountUS = append(p.recountUS, float64(time.Since(t0))/1e3)
		}
		switch {
		case err == nil:
			res.Str = res.N.String()
			ent.StoreResult(server.ResultCount, p.epoch, version, res)
			if fpOK {
				p.cache.StoreResultByFP(server.ResultCount, fp, p.epoch, version, res)
			}
			return exact(res)
		case errors.Is(err, repaircount.ErrBudget):
			p.t.span("server.admission.price", func() { adm = p.ladder.PriceApprox(c, adm) })
		default:
			return p.renderErr(http.StatusInternalServerError, server.APIError{Code: "internal", Message: err.Error()})
		}
	}
	if adm.Mode == server.AdmitApprox {
		t0 := time.Now()
		var est repaircount.Estimate
		var err error
		p.t.span("core.fpras", func() {
			est, err = c.ApproximateParallelCtx(ctx, p.ladder.Eps, p.ladder.Delta, 1, p.seed)
		})
		if err != nil {
			return p.renderErr(http.StatusInternalServerError, server.APIError{Code: "internal", Message: err.Error()})
		}
		p.fprasSamples += float64(est.Samples)
		p.fprasSeconds += time.Since(t0).Seconds()
		p.render(est.Value.Text('f', 2), map[string]any{"mode": "approx", "estimate": est.Value.Text('f', 2),
			"eps": p.ladder.Eps, "delta": p.ladder.Delta, "samples": est.Samples, "hits": est.Hits, "version": version, "epoch": p.epoch})
		return http.StatusOK
	}
	return p.renderErr(http.StatusTooManyRequests, p.ladder.BudgetError(adm))
}

// apply applies one ops batch as the daemon's write path does: patch the
// live instance, journal the ops that changed it, compact past the
// threshold (which re-maps the snapshot and moves the epoch).
func (p *pipeline) apply(ops []workload.Update) error {
	root := p.t.begin("ops.batch")
	defer p.t.end(root)
	var changed []repaircount.Delta
	var err error
	p.t.span("repairs.delta.apply", func() {
		for _, op := range ops {
			d := repaircount.Insert(op.Fact)
			if op.Del {
				d = repaircount.Delete(op.Fact)
			}
			var n int
			if n, err = p.snap.Apply(d); err != nil {
				return
			}
			if n > 0 {
				changed = append(changed, d)
			}
		}
	})
	if err != nil {
		return err
	}
	if len(changed) > 0 {
		before, err := fileSize(p.path)
		if err != nil {
			return err
		}
		p.t.span("store.journal_append", func() { err = repaircount.AppendJournal(p.path, changed...) })
		if err != nil {
			return err
		}
		after, err := fileSize(p.path)
		if err != nil {
			return err
		}
		p.journalBytes += after - before
		p.journalOps += int64(len(changed))
		if p.compactBytes > 0 && after-p.baseLen >= p.compactBytes {
			return p.compact()
		}
	}
	return nil
}

func (p *pipeline) compact() error {
	var err error
	p.t.span("store.compact", func() { err = repaircount.CompactSnapshot(p.path, p.path) })
	if err != nil {
		return err
	}
	var snap *repaircount.Snapshot
	p.t.span("store.open", func() { snap, err = repaircount.OpenSnapshot(p.path) })
	if err != nil {
		return err
	}
	size, err := fileSize(p.path)
	if err != nil {
		snap.Close()
		return err
	}
	p.snap.Close()
	p.snap, p.baseLen = snap, size-snap.JournalBytes()
	p.epoch++
	return nil
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// replayServing warms a fresh pipeline with the working set, then
// replays the first n probes of seq, applying the next ops batch after
// every perBatch probes (perBatch 0: no ops). It returns the pipeline
// and the replay's wall time, warm-up excluded.
func replayServing(t *tracer, dir string, db *relational.Database, ks *relational.KeySet, cfg replayConfig,
	keys, seq []request, n int, ops []workload.Update, perBatch int) (*pipeline, time.Duration, error) {
	p, err := newPipeline(t, dir, db, ks, cfg)
	if err != nil {
		return nil, 0, err
	}
	on := t.on
	t.on = false
	for _, k := range keys {
		p.serve(k)
	}
	t.on = on
	start := time.Now()
	batch := 0
	for i := range n {
		t.req = int32(i)
		p.serve(seq[i%len(seq)])
		if perBatch > 0 && (i+1)%perBatch == 0 && batch*opsPerBatch < len(ops) {
			end := min((batch+1)*opsPerBatch, len(ops))
			if err := p.apply(ops[batch*opsPerBatch : end]); err != nil {
				p.close()
				return nil, 0, err
			}
			batch++
		}
	}
	return p, time.Since(start), nil
}
