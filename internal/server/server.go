// Package server wraps a repair-counting snapshot as a long-lived
// HTTP/JSON daemon (`repairctl serve`): one mmapped .cqs snapshot, a
// bounded pool of probe workers with per-worker counter/matcher reuse
// over the shared live substrate, an admission ladder that prices every
// count probe before running it (exact → FPRAS with reported (ε, δ) →
// typed budget refusal), cooperative cancellation threaded into every
// enumeration kernel, and a crash-safe write path: an append-only ops
// file is tailed, applied through the live instance, journaled with
// fsync'd appends and compacted atomically, with torn-tail recovery at
// startup and the consumed ops offset persisted in a sidecar so
// restarts resume the tail instead of replaying from zero.
//
// The hot serve path runs through a shared, bounded probe cache
// (ProbeCache): compiled counters, priced admissions and completed
// exact/total/decide results are memoized per query and keyed by the
// substrate epoch and instance version, with per-entry locks collapsing
// a thundering herd of identical probes into one count. See the
// "Serve-path performance" section of the root package docs.
//
// Both daemons run this one probe pipeline: slot and deadline → query →
// cache entry → admission → execute → render, plus the snapshot
// lifecycle (recover, open, apply-and-journal, compaction and epochs).
// The shard-fleet coordinator in internal/cluster plugs in as a Backend
// (NewWithBackend): it prices and runs the exact rung of its partition
// query over the fleet and follows the write path, and every other step
// is this package's.
package server

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repaircount"
	"repaircount/internal/core"
	"repaircount/internal/repairs"
	"repaircount/internal/workload"
)

// Config parameterizes a Server. Zero values select the documented
// defaults.
type Config struct {
	// SnapshotPath is the .cqs file to serve (required). The file is
	// recovered (torn journal tails truncated) before it is mapped.
	SnapshotPath string
	// OpsPath, when set, is an append-only update-stream file ("+ Fact" /
	// "- Fact" lines) the daemon tails: new complete lines are applied to
	// the live instance and journaled to the snapshot. The consumed byte
	// offset persists in the OpsPath + ".offset" sidecar.
	OpsPath string
	// Workers bounds concurrently running probes (default GOMAXPROCS).
	Workers int
	// CountWorkers is the goroutine count inside one exact count or
	// sampling loop (default 1: probe-level parallelism comes first).
	CountWorkers int
	// QueueDepth bounds probes waiting for a worker slot; beyond it the
	// daemon answers 503 overloaded immediately (default 4×Workers).
	QueueDepth int
	// Deadline is the per-probe wall-clock budget (default 30s). An
	// expired deadline cancels the probe cooperatively and answers 504.
	Deadline time.Duration
	// ExactBudget is the admission ceiling on the planner's priced exact
	// work Σ_c min(2^{n_c}, IE_c); costlier plans degrade to the FPRAS
	// (default repairs.DefaultEnumBudget).
	ExactBudget int64
	// MaxSamples is the admission ceiling on the Theorem 6.2 sample bound;
	// probes needing more get a budget_exceeded error (default
	// core.MaxApxSamples).
	MaxSamples int64
	// Eps and Delta are the accuracy served on the FPRAS rung (defaults
	// 0.1 and 0.05); responses report them.
	Eps, Delta float64
	// Seed makes degraded probes reproducible (default 1).
	Seed uint64
	// Poll is the ops-file tail interval (default 200ms).
	Poll time.Duration
	// CompactBytes triggers an atomic in-place compaction when the
	// snapshot's journal region exceeds it (default 1 MiB; < 0 disables).
	CompactBytes int64
	// CacheEntries bounds the shared probe cache holding compiled
	// counters, priced admissions and completed exact/total/decide
	// results keyed by (query, epoch, version). 0 selects
	// DefaultCacheEntries; < 0 disables the shared cache (probe slots
	// keep their private per-slot counter caches either way).
	CacheEntries int
	// ProbsPath, when set, is a per-fact probability-annotation file in
	// the workload prob-stream format ("weight<TAB>Fact" lines); /v1/prob
	// probes evaluate query probabilities under these weights through the
	// compiled-circuit weighted counters. Absent, /v1/prob serves the
	// uniform distribution (every repair equally likely — the relative
	// frequency). Annotations naming facts not in the instance are kept
	// and simply never used, so one file outlives the ops stream.
	ProbsPath string
}

// Fill replaces zero values with the documented defaults. New calls it;
// a topology that wraps a Server and reads the settings itself (the
// fleet coordinator's maintenance tick) calls it first.
func (cfg *Config) Fill() {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CountWorkers <= 0 {
		cfg.CountWorkers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 30 * time.Second
	}
	if cfg.ExactBudget <= 0 {
		cfg.ExactBudget = int64(repairs.DefaultEnumBudget)
	}
	if cfg.MaxSamples <= 0 {
		cfg.MaxSamples = core.MaxApxSamples
	}
	if cfg.Eps <= 0 {
		cfg.Eps = 0.1
	}
	if cfg.Delta <= 0 {
		cfg.Delta = 0.05
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	if cfg.CompactBytes == 0 {
		cfg.CompactBytes = 1 << 20
	}
}

// Ladder returns the admission policy the config describes.
func (cfg Config) Ladder() Ladder {
	return Ladder{ExactBudget: cfg.ExactBudget, MaxSamples: cfg.MaxSamples, Eps: cfg.Eps, Delta: cfg.Delta}
}

// Server is one serving daemon instance. Probes take the read side of mu;
// the ops applier and compactor take the write side, so counts always see
// a consistent instance version.
type Server struct {
	cfg     Config
	ladder  Ladder
	backend Backend // nil for the single-node daemon

	mu      sync.RWMutex
	snap    *repaircount.Snapshot
	epoch   uint64 // bumped when the snapshot file is re-mapped (compaction)
	baseLen int64  // sealed-base bytes of the served file

	pool  *Pool
	cache *ProbeCache        // nil when CacheEntries < 0
	probs map[string]float64 // per-fact weights for /v1/prob (nil = uniform)

	degradedReason atomic.Pointer[string]

	appliedOps atomic.Int64
	journaled  atomic.Int64
	recovered  int64 // torn bytes dropped at startup

	stats struct {
		probes, exact, approx, prob, rejected, overloaded, deadline atomic.Int64
	}

	tailer   *tailer
	stop     chan struct{}
	stopOnce sync.Once
	tailDone chan struct{}
}

// New recovers, maps and starts serving the snapshot in cfg. The returned
// server's Handler routes the probe API; Close stops the tailer and
// releases the mapping.
func New(cfg Config) (*Server, error) { return NewWithBackend(cfg, nil) }

// NewWithBackend is New with a backend serving part of the count
// pipeline (see Backend). A backend's epochs are its cuts: the snapshot
// is compacted first when it carries a journal, so the first cut — epoch
// 1 — is taken over a clean sealed base, and it is handed to
// b.Reshard before the tail starts.
func NewWithBackend(cfg Config, b Backend) (*Server, error) {
	cfg.Fill()
	if cfg.SnapshotPath == "" {
		return nil, fmt.Errorf("server: SnapshotPath is required")
	}
	var probs map[string]float64
	if cfg.ProbsPath != "" {
		pf, err := os.Open(cfg.ProbsPath)
		if err != nil {
			return nil, fmt.Errorf("server: opening probs %s: %w", cfg.ProbsPath, err)
		}
		anns, err := workload.ParseProbAnnotations(pf)
		pf.Close()
		if err != nil {
			return nil, fmt.Errorf("server: parsing probs %s: %w", cfg.ProbsPath, err)
		}
		probs = workload.AnnotationMap(anns)
	}
	recovered, err := repaircount.RecoverSnapshot(cfg.SnapshotPath)
	if err != nil {
		return nil, fmt.Errorf("server: recovering %s: %w", cfg.SnapshotPath, err)
	}
	snap, err := repaircount.OpenSnapshot(cfg.SnapshotPath)
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(cfg.SnapshotPath)
	if err != nil {
		snap.Close()
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		ladder:    cfg.Ladder(),
		backend:   b,
		snap:      snap,
		baseLen:   st.Size() - snap.JournalBytes(),
		pool:      NewPool(cfg.Workers, cfg.QueueDepth),
		probs:     probs,
		recovered: recovered,
		stop:      make(chan struct{}),
		tailDone:  make(chan struct{}),
	}
	if cfg.CacheEntries >= 0 {
		s.cache = NewProbeCache(cfg.CacheEntries)
	}
	if b != nil {
		if snap.JournalBytes() > 0 {
			err = s.compactLocked()
		}
		if err == nil {
			s.epoch = 1
			err = b.Reshard(s.snap, s.epoch)
		}
		if err != nil {
			s.snap.Close()
			return nil, err
		}
	}
	if cfg.OpsPath != "" {
		s.tailer = &tailer{opsPath: cfg.OpsPath, poll: cfg.Poll, apply: s.applyBatch}
		go s.tailLoop()
	} else {
		close(s.tailDone)
	}
	return s, nil
}

// Recovered returns the torn journal bytes dropped at startup.
func (s *Server) Recovered() int64 { return s.recovered }

// Close stops the ops tailer and unmaps the snapshot. In-flight probes
// must have drained (close the HTTP server first). Safe to call twice.
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.tailDone
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snap == nil {
		return nil
	}
	err := s.snap.Close()
	s.snap = nil
	return err
}

// degrade marks the daemon read-only after a write-path failure: probes
// keep answering, the tailer stops, and /healthz fails.
func (s *Server) degrade(err error) {
	msg := err.Error()
	s.degradedReason.CompareAndSwap(nil, &msg)
}

// degraded returns the write-path failure reason, or "".
func (s *Server) degraded() string {
	if p := s.degradedReason.Load(); p != nil {
		return *p
	}
	return ""
}

// buildCounter parses and compiles one query against the current
// snapshot. Caller holds s.mu.RLock.
func (s *Server) buildCounter(qs string) (*repaircount.Counter, error) {
	q, err := repaircount.ParseQuery(qs)
	if err != nil {
		return nil, err
	}
	return s.snap.Counter(q)
}

// writeCtxErr maps a canceled probe context to its transport answer.
func (s *Server) writeCtxErr(w http.ResponseWriter, ctx context.Context) {
	if ctx.Err() == context.DeadlineExceeded {
		s.stats.deadline.Add(1)
	}
	WriteCtxErr(w, ctx, s.cfg.Deadline)
}

func writeBadQuery(w http.ResponseWriter, err error) {
	WriteErr(w, http.StatusBadRequest, APIError{Code: "bad_query", Message: err.Error()})
}

// Handler routes the probe API. Any other path answers a structured 404.
func (s *Server) Handler() http.Handler {
	routes := map[string]http.HandlerFunc{
		"/v1/count":   s.handleCount,
		"/v1/prob":    s.handleProb,
		"/v1/decide":  s.handleDecide,
		"/v1/explain": s.handleExplain,
		"/v1/rank":    s.handleRank,
		"/v1/total":   s.handleTotal,
		"/v1/stats":   s.handleStats,
		"/healthz":    s.handleHealth,
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h, ok := routes[r.URL.Path]; ok {
			h(w, r)
			return
		}
		WriteErr(w, http.StatusNotFound, APIError{Code: "not_found", Message: fmt.Sprintf("no endpoint %q", r.URL.Path)})
	})
}

// withProbe runs fn on an acquired slot under the read lock, handling
// slot acquisition, queue overload and the probe deadline uniformly.
func (s *Server) withProbe(w http.ResponseWriter, r *http.Request, fn func(ctx context.Context, sl *Slot)) {
	s.stats.probes.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Deadline)
	defer cancel()
	sl, err := s.pool.Acquire(ctx)
	if err != nil {
		if err == ErrOverloaded {
			s.stats.overloaded.Add(1)
			WriteErr(w, http.StatusServiceUnavailable, APIError{Code: "overloaded",
				Message: fmt.Sprintf("%d probes already queued", s.cfg.QueueDepth)})
			return
		}
		s.writeCtxErr(w, ctx)
		return
	}
	defer s.pool.Release(sl)
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(ctx, sl)
}

// probe is one admitted query probe: the instance version and epoch it
// runs at, and its counter — the shared cache entry's, held locked until
// the handler returns, or with the cache off the slot's private one.
type probe struct {
	ctx            context.Context
	qs             string
	version, epoch uint64
	ent            *CacheEntry // nil when the shared cache is off
	c              *repaircount.Counter
}

// result returns the memoized result of the given kind, if any.
func (p *probe) result(kind ResultKind) (CachedResult, bool) {
	if p.ent == nil {
		return CachedResult{}, false
	}
	return p.ent.Result(kind, p.epoch, p.version)
}

// store memoizes a completed result when the cache is on.
func (p *probe) store(kind ResultKind, res CachedResult) {
	if p.ent != nil {
		p.ent.StoreResult(kind, p.epoch, p.version, res)
	}
}

// withQuery runs fn for one query probe: query extraction, withProbe,
// then the counter lookup every query endpoint shares.
func (s *Server) withQuery(w http.ResponseWriter, r *http.Request, fn func(p *probe)) {
	qs, err := probeQuery(r)
	if err != nil {
		writeBadQuery(w, err)
		return
	}
	s.withProbe(w, r, func(ctx context.Context, sl *Slot) {
		p := &probe{ctx: ctx, qs: qs, version: s.snap.Version(), epoch: s.epoch}
		var err error
		if s.cache == nil {
			if p.c, err = sl.Counter(s.epoch, qs, s.buildCounter); err != nil {
				writeBadQuery(w, err)
				return
			}
		} else {
			if p.ent, err = s.cache.Acquire(ctx, s.epoch, qs, s.buildCounter); err != nil {
				if ctx.Err() != nil {
					s.writeCtxErr(w, ctx)
				} else {
					writeBadQuery(w, err)
				}
				return
			}
			defer s.cache.Release(p.ent)
			p.c = p.ent.Counter()
		}
		fn(p)
	})
}

// price returns the probe's admission, memoized per (epoch, version)
// when a cache entry is present — and, across version bumps that did not
// move the plan fingerprint, a memoized exact admission is reused without
// re-running the ladder (Ladder.PriceEntry). A later ErrBudget re-price
// is never stored: the memo keeps the plan-level admission, exactly
// mirroring what the uncached ladder would decide on every probe.
func (s *Server) price(p *probe) Admission {
	if p.ent == nil {
		return s.ladder.Price(p.c)
	}
	return s.ladder.PriceEntry(p.ent, p.c, p.epoch, p.version)
}

// countMemo returns a memoized exact count: the per-text memo first, then
// a structurally identical query's result through the count-fingerprint
// alias (equal fingerprints imply equal counts), which is copied into
// this text's memo for the fast path.
func (s *Server) countMemo(p *probe) (CachedResult, bool) {
	if res, ok := p.result(ResultCount); ok || p.ent == nil {
		return res, ok
	}
	if fp, ok := p.c.CountFingerprint(); ok {
		if res, ok := s.cache.ResultByFP(ResultCount, fp, p.epoch, p.version); ok {
			p.store(ResultCount, res)
			return res, true
		}
	}
	return CachedResult{}, false
}

// storeCount memoizes an exact count under the text and its fingerprint.
func (s *Server) storeCount(p *probe, res CachedResult) {
	if p.ent == nil {
		return
	}
	p.store(ResultCount, res)
	if fp, ok := p.c.CountFingerprint(); ok {
		s.cache.StoreResultByFP(ResultCount, fp, p.epoch, p.version, res)
	}
}

// writeLocalCount answers a count served by the local exact rung.
func (s *Server) writeLocalCount(w http.ResponseWriter, r *http.Request, p *probe, rt *Route, res CachedResult) {
	s.stats.exact.Add(1)
	resp := map[string]any{
		"mode": "exact", "count": res.Str,
		"engine": res.Engine.String(), "version": p.version, "epoch": p.epoch,
	}
	if s.backend != nil {
		s.backend.LocalCount(rt, resp)
	}
	WriteResult(w, r, res.Str, resp)
}

// handleCount runs the admission ladder: an exact count where the
// planned work fits the budget, the FPRAS where it does not, a
// structured 429 where the sample bound does not fit either. A probe the
// backend routes runs its exact rung there, priced on the backend's
// critical path and never answered from the local result memo: the
// backend's round trips are its own failure detector.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	s.withQuery(w, r, func(p *probe) {
		var rt *Route
		if s.backend != nil {
			rt = s.backend.Route(p.qs)
		}
		remote := rt != nil && rt.Run != nil
		if !remote {
			if res, ok := s.countMemo(p); ok {
				s.writeLocalCount(w, r, p, rt, res)
				return
			}
		}
		var adm Admission
		if remote {
			adm = s.ladder.PriceCost(p.c, rt.Cost)
		} else {
			adm = s.price(p)
		}
		if adm.Mode == AdmitExact && remote {
			str, keys, err := rt.Run(p.ctx, p.ent, p.version)
			var se *StatusError
			switch {
			case err == nil:
				s.stats.exact.Add(1)
				resp := map[string]any{"mode": "exact", "count": str, "version": p.version, "epoch": p.epoch}
				maps.Copy(resp, keys)
				WriteResult(w, r, str, resp)
				return
			case p.ctx.Err() != nil:
				s.writeCtxErr(w, p.ctx)
				return
			case errors.As(err, &se):
				WriteErr(w, se.Status, se.APIError)
				return
			default:
				// The backend is unavailable; the local rung is still exact.
				fmt.Fprintf(os.Stderr, "server: backend count failed, serving locally: %v\n", err)
				rt = &Route{Reason: err.Error()}
			}
		}
		if adm.Mode == AdmitExact {
			n, engine, err := p.c.CountCtx(p.ctx, s.cfg.CountWorkers)
			switch {
			case err == nil:
				res := CachedResult{N: n, Str: n.String(), Engine: engine}
				s.storeCount(p, res)
				s.writeLocalCount(w, r, p, rt, res)
				return
			case p.ctx.Err() != nil:
				s.writeCtxErr(w, p.ctx)
				return
			case errors.Is(err, repaircount.ErrBudget):
				// The runtime fallback chain ran out of budget despite the
				// plan's price: degrade to the FPRAS rung below.
				adm = s.ladder.PriceApprox(p.c, adm)
			default:
				WriteErr(w, http.StatusInternalServerError, APIError{Code: "internal", Message: err.Error()})
				return
			}
		}
		if adm.Mode == AdmitApprox {
			est, err := p.c.ApproximateParallelCtx(p.ctx, s.cfg.Eps, s.cfg.Delta, s.cfg.CountWorkers, s.cfg.Seed)
			if err != nil {
				if p.ctx.Err() != nil {
					s.writeCtxErr(w, p.ctx)
					return
				}
				WriteErr(w, http.StatusInternalServerError, APIError{Code: "internal", Message: err.Error()})
				return
			}
			s.stats.approx.Add(1)
			WriteResult(w, r, est.Value.Text('f', 2), map[string]any{
				"mode": "approx", "estimate": est.Value.Text('f', 2),
				"eps": s.cfg.Eps, "delta": s.cfg.Delta,
				"samples": est.Samples, "hits": est.Hits,
				"version": p.version, "epoch": p.epoch,
			})
			return
		}
		s.stats.rejected.Add(1)
		WriteErr(w, http.StatusTooManyRequests, s.ladder.BudgetError(adm))
	})
}

// writeProb answers a served probability interval.
func (s *Server) writeProb(w http.ResponseWriter, r *http.Request, p *probe, res CachedResult) {
	s.stats.prob.Add(1)
	WriteResult(w, r, res.Str, map[string]any{
		"prob_lo": res.Lo, "prob_hi": res.Hi, "prob": res.Str,
		"version": p.version, "epoch": p.epoch,
	})
}

// handleProb answers /v1/prob: the probability that a random repair
// entails the query under the daemon's per-fact weight annotations
// (-probs; uniform without one), evaluated through the compiled-circuit
// weighted counters as an outward-rounded interval bracketing the exact
// value. The probe is admission-priced by circuit size — the budget of
// the forced-compile plan, i.e. cached circuits at their node count and
// cold compiles at their capped bound — and there is no approximate rung:
// a plan beyond the exact budget (or a query the circuit engine cannot
// serve: non-∃FO⁺, masked factorization) is refused with a structured
// budget error, never silently estimated.
func (s *Server) handleProb(w http.ResponseWriter, r *http.Request) {
	s.withQuery(w, r, func(p *probe) {
		if res, ok := p.result(ResultProb); ok {
			s.writeProb(w, r, p, res)
			return
		}
		reject := func(e APIError) {
			s.stats.rejected.Add(1)
			e.Code, e.ExactBudget = "budget_exceeded", s.cfg.ExactBudget
			WriteErr(w, http.StatusTooManyRequests, e)
		}
		plan, err := p.c.ExplainPlan(repaircount.EngineCompile)
		switch {
		case err != nil:
			reject(APIError{Message: fmt.Sprintf("probability probe needs the circuit engine: %v", err)})
			return
		case plan.Engine == repaircount.EngineEnumFO:
			reject(APIError{Message: "no circuit (and no weighted counter) exists outside existential positive FO"})
			return
		case !plan.AlwaysTrue && plan.Budget > s.cfg.ExactBudget:
			reject(APIError{
				Message:     fmt.Sprintf("planned circuit work %d exceeds the exact budget (no approximate rung for weighted counting)", plan.Budget),
				PlannedCost: fmt.Sprint(plan.Budget)})
			return
		}
		iv, err := p.c.ProbabilityOf(p.c.FactWeights(s.probs))
		if err != nil {
			if errors.Is(err, repaircount.ErrBudget) {
				reject(APIError{Message: err.Error()})
				return
			}
			WriteErr(w, http.StatusBadRequest, APIError{Code: "prob_unavailable", Message: err.Error()})
			return
		}
		res := CachedResult{Lo: iv.Lo, Hi: iv.Hi, Str: iv.String()}
		p.store(ResultProb, res)
		s.writeProb(w, r, p, res)
	})
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	s.withQuery(w, r, func(p *probe) {
		res, ok := p.result(ResultDecide)
		if !ok {
			res = CachedResult{Entailed: p.c.Decide()}
			res.Str = fmt.Sprintf("%v", res.Entailed)
			p.store(ResultDecide, res)
		}
		WriteResult(w, r, res.Str, map[string]any{
			"entailed": res.Entailed, "version": p.version, "epoch": p.epoch,
		})
	})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.withQuery(w, r, func(p *probe) {
		adm := s.price(p)
		resp := map[string]any{
			"admission": adm.Mode,
			"engine":    adm.Engine.String(),
			"version":   p.version,
			"epoch":     p.epoch,
		}
		if adm.PlannedCost != nil {
			resp["planned_cost"] = adm.PlannedCost.String()
		}
		if adm.Mode == AdmitApprox || adm.SampleBound != nil {
			if adm.SampleBound != nil {
				resp["sample_bound"] = adm.SampleBound.String()
			}
			resp["eps"], resp["delta"] = s.cfg.Eps, s.cfg.Delta
		}
		if adm.Mode == AdmitReject {
			resp["reason"] = adm.Reason
		}
		if s.backend != nil {
			s.backend.Explain(p.qs, resp)
		}
		WriteJSON(w, http.StatusOK, resp)
	})
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	qs, err := probeQuery(r)
	if err != nil {
		writeBadQuery(w, err)
		return
	}
	s.withProbe(w, r, func(ctx context.Context, sl *Slot) {
		q, err := repaircount.ParseQuery(qs)
		if err != nil {
			writeBadQuery(w, err)
			return
		}
		ranked, err := s.snap.RankAnswers(q)
		if err != nil {
			if errors.Is(err, repaircount.ErrBudget) {
				s.stats.rejected.Add(1)
				WriteErr(w, http.StatusTooManyRequests, APIError{Code: "budget_exceeded", Message: err.Error()})
				return
			}
			writeBadQuery(w, err)
			return
		}
		type answer struct {
			Tuple     []string `json:"tuple"`
			Count     string   `json:"count"`
			Frequency string   `json:"frequency"`
		}
		out := make([]answer, len(ranked))
		for i, a := range ranked {
			tuple := make([]string, len(a.Tuple))
			for j, c := range a.Tuple {
				tuple[j] = string(c)
			}
			out[i] = answer{Tuple: tuple, Count: a.Count.String(), Frequency: a.Frequency.RatString()}
		}
		WriteResult(w, r, "", map[string]any{
			"answers": out, "version": s.snap.Version(), "epoch": s.epoch,
		})
	})
}

func (s *Server) handleTotal(w http.ResponseWriter, r *http.Request) {
	s.withProbe(w, r, func(ctx context.Context, sl *Slot) {
		version := s.snap.Version()
		var str string
		if s.cache != nil {
			_, str = s.cache.Total(s.epoch, version, s.snap.TotalRepairs)
		} else {
			str = s.snap.TotalRepairs().String()
		}
		WriteResult(w, r, str, map[string]any{
			"total": str, "version": version, "epoch": s.epoch,
		})
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	journalBytes := int64(0)
	if st, err := os.Stat(s.cfg.SnapshotPath); err == nil {
		journalBytes = st.Size() - s.baseLen
	}
	opsOffset := int64(0)
	if s.tailer != nil {
		opsOffset = s.tailer.Offset()
	}
	resp := map[string]any{
		"epoch":            s.epoch,
		"version":          s.snap.Version(),
		"journal_bytes":    journalBytes,
		"applied_ops":      s.appliedOps.Load(),
		"journaled_ops":    s.journaled.Load(),
		"ops_offset":       opsOffset,
		"recovered_bytes":  s.recovered,
		"degraded":         s.degraded(),
		"probes":           s.stats.probes.Load(),
		"exact_probes":     s.stats.exact.Load(),
		"approx_probes":    s.stats.approx.Load(),
		"prob_probes":      s.stats.prob.Load(),
		"rejected_probes":  s.stats.rejected.Load(),
		"overloaded":       s.stats.overloaded.Load(),
		"deadline_expired": s.stats.deadline.Load(),
	}
	var cs CacheStats
	if s.cache != nil {
		cs = s.cache.Stats()
	}
	resp["cache_hits"] = cs.Hits
	resp["cache_misses"] = cs.Misses
	resp["cache_evictions"] = cs.Evictions
	resp["cache_entries"] = cs.Entries
	resp["cache_fp_merges"] = cs.FPMerges
	if s.backend != nil {
		s.backend.Stats(resp)
	}
	s.mu.RUnlock()
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if reason := s.degraded(); reason != "" {
		http.Error(w, "degraded: "+reason, http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}
