package main

import (
	"fmt"
	"io"
	"math"
	"math/big"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repaircount"
	"repaircount/internal/core"
	"repaircount/internal/relational"
	"repaircount/internal/repairs"
	"repaircount/internal/server"
	"repaircount/internal/store"
	"repaircount/internal/workload"
)

// This file is the traced run of each workload (-trace 1). It repeats
// the untraced run's load phases with /v1/stats and /proc read around
// them (the outside-in counters), then replays the same request sequence
// in-process twice — untraced, then traced — for the per-layer spans and
// the tracing overhead.

// How many probes of the sequence a replay serves.
const (
	replayHot   = 20000
	replayChurn = 4000
)

// cpuOf sums the CPU time of processes.
func cpuOf(pids []int) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		s, err := cpuSeconds(pid)
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// outsideIn runs the load phases between two scrapes of /v1/stats (of
// base, and of each worker) and of /proc, and fills the counter metrics
// from the differences. around wraps the load (the churn workloads run
// their ops stream beside it).
func outsideIn(e *env, m metrics, base string, pids []int, workers []string, seq []request, rate float64,
	check checkFunc, around func(func()) error) ([]*phase, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	scrape := func() (map[string]any, []map[string]any, float64, float64, error) {
		st, err := stats(c, base)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		var ws []map[string]any
		for _, w := range workers {
			wst, err := stats(c, w)
			if err != nil {
				return nil, nil, 0, 0, err
			}
			ws = append(ws, wst)
		}
		daemons, err := cpuOf(pids)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		self, err := cpuSeconds(0)
		return st, ws, daemons, self, err
	}
	st0, ws0, srv0, drv0, err := scrape()
	if err != nil {
		return nil, err
	}
	steal0, err := stealSeconds()
	if err != nil {
		return nil, err
	}
	var open, closed *phase
	if err := around(func() { open, closed = loadPhases(e, base, seq, rate, check) }); err != nil {
		return nil, err
	}
	st1, ws1, srv1, drv1, err := scrape()
	if err != nil {
		return nil, err
	}
	steal1, err := stealSeconds()
	if err != nil {
		return nil, err
	}
	m["proc.steal_share"] = (steal1 - steal0) / ((open.elapsed + closed.elapsed).Seconds() * float64(runtime.NumCPU()))

	probes := delta(st0, st1, "probes")
	hits, misses := delta(st0, st1, "cache_hits"), delta(st0, st1, "cache_misses")
	m["server.cache.hit_ratio"] = ratio(hits, hits+misses)
	m["server.cache.evictions_per_kprobe"] = ratio(delta(st0, st1, "cache_evictions"), probes/1000)
	m["server.cache.fp_merge_ratio"] = ratio(delta(st0, st1, "cache_fp_merges"), probes)
	ex, ap, rj := delta(st0, st1, "exact_probes"), delta(st0, st1, "approx_probes"), delta(st0, st1, "rejected_probes")
	m["server.admission.exact_share"] = ratio(ex, ex+ap+rj)
	m["server.admission.approx_share"] = ratio(ap, ex+ap+rj)
	m["server.admission.reject_share"] = ratio(rj, ex+ap+rj)
	m["proc.server_cpu_ms_per_kprobe"] = ratio((srv1-srv0)*1000, probes/1000)
	m["proc.loadgen_cpu_share"] = ratio(drv1-drv0, drv1-drv0+srv1-srv0)
	if len(workers) > 0 {
		m["store.compactions"] = delta(st0, st1, "reshards")
		m["cluster.reshards"] = delta(st0, st1, "reshards")
		m["cluster.fanout_share"] = ratio(delta(st0, st1, "fanout_probes"), probes)
		m["cluster.local_fallback_share"] = ratio(delta(st0, st1, "local_fallback"), probes)
		m["cluster.integrity_errors"] = delta(st0, st1, "integrity_errors")
		var partials, skips float64
		for i := range ws0 {
			partials += delta(ws0[i], ws1[i], "partials")
			skips += delta(ws0[i], ws1[i], "partial_skips")
		}
		m["cluster.partial_hit_ratio"] = ratio(skips, partials)
	} else {
		m["store.compactions"] = delta(st0, st1, "epoch")
	}

	byEndpoint := map[string][]float64{}
	var bytes []float64
	for _, s := range open.samples {
		ep := seq[s.req].endpoint
		byEndpoint[ep] = append(byEndpoint[ep], float64(s.lat)/1e6)
		bytes = append(bytes, float64(s.bytes))
	}
	for _, ep := range []string{"count", "decide", "prob", "explain", "total"} {
		m["http."+ep+"_p50_ms"] = median(byEndpoint[ep])
	}
	m["wire.resp_bytes_mean"] = mean(bytes)
	m["tail.latency_p99_ms"] = quantile(open.calmLatenciesMS(), 0.99)
	m["loadgen.late_ms_p99"] = quantile(open.late, 0.99)
	m["loadgen.offered_rps"] = open.offered
	m["loadgen.achieved_rps"] = float64(len(open.samples)) / open.elapsed.Seconds()
	return []*phase{open, closed}, nil
}

// wireSelf is the loopback round trip minus the in-process
// Handler().ServeHTTP time for the same warm requests, in µs (medians).
func wireSelf(base string, ref *reference, keys []request) (float64, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	get := func(r request) error {
		resp, err := c.Get(base + r.path)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err
	}
	for _, k := range keys {
		if err := get(k); err != nil {
			return 0, err
		}
		ref.serve(k)
	}
	var rtt, inproc []float64
	for i := range 2000 {
		k := keys[i%len(keys)]
		t0 := time.Now()
		if err := get(k); err != nil {
			return 0, err
		}
		rtt = append(rtt, float64(time.Since(t0))/1e3)
		t0 = time.Now()
		ref.serve(k)
		inproc = append(inproc, float64(time.Since(t0))/1e3)
	}
	return median(rtt) - median(inproc), nil
}

// replayTwice runs a replay untraced and then traced, fills the
// per-layer metrics from the traced one, and writes its spans out.
func replayTwice(e *env, m metrics, name string, n int, run func(t *tracer, dir string) (*pipeline, time.Duration, error)) error {
	plain, base, err := run(newTracer(false), filepath.Join(e.dir, "replay-plain"))
	if err != nil {
		return err
	}
	plain.close()
	t := newTracer(true)
	p, traced, err := run(t, filepath.Join(e.dir, "replay-traced"))
	if err != nil {
		return err
	}
	defer p.close()
	m["trace.overhead_frac"] = ratio(traced.Seconds(), base.Seconds())
	const us, ms = time.Microsecond, time.Millisecond
	m["server.cache.acquire_us_p50"] = t.p50("server.cache.acquire", us)
	m["server.admission.price_us_p50"] = t.p50("server.admission.price", us)
	m["query.parse_us_p50"] = t.p50("query.parse", us)
	m["repairs.counter_build_us_p50"] = t.p50("repairs.plan.counter_build", us)
	m["repairs.plan.explain_us_p50"] = t.p50("repairs.plan.explain", us)
	m["repairs.recount_us_p50"] = median(p.recountUS)
	m["repairs.delta.apply_us_p50"] = t.p50("repairs.delta.apply", us)
	m["repairs.weighted.prob_us_p50"] = t.p50("repairs.weighted.prob", us)
	m["core.fpras.ms_p50"] = t.p50("core.fpras", ms)
	m["core.fpras.samples_per_s"] = ratio(p.fprasSamples, p.fprasSeconds)
	m["store.build_ms"] = t.p50("store.build", ms)
	m["store.open_ms"] = t.p50("store.open", ms)
	m["store.snapshot_bytes_per_fact"] = ratio(float64(p.baseLen), float64(p.facts))
	m["store.journal_append_us_p50"] = t.p50("store.journal_append", us)
	m["store.journal_bytes_per_op"] = ratio(float64(p.journalBytes), float64(p.journalOps))
	m["store.compact_ms_p50"] = t.p50("store.compact", ms)
	t.selfTimes(m, n)
	return t.write(e, name)
}

// ladderFor is the admission ladder of a daemon started with the given
// -exact-budget and -eps (0 = the flag defaults).
func ladderFor(exactBudget int64, eps float64) server.Ladder {
	l := server.Ladder{ExactBudget: exactBudget, MaxSamples: core.MaxApxSamples, Eps: eps, Delta: 0.05}
	if l.ExactBudget == 0 {
		l.ExactBudget = int64(repairs.DefaultEnumBudget)
	}
	if l.Eps == 0 {
		l.Eps = 0.1
	}
	return l
}

func traceHot(e *env, d *daemon, in *servingInputs, keys, seq []request, rate float64, check checkFunc) (metrics, []*phase, error) {
	m := metrics{}
	phases, err := outsideIn(e, m, d.url, []int{d.pid()}, nil, seq, rate, check, func(fn func()) error { fn(); return nil })
	if err != nil {
		return nil, nil, err
	}
	ref, err := newReference(server.Config{SnapshotPath: in.snapshot, ProbsPath: in.probs})
	if err != nil {
		return nil, nil, err
	}
	m["wire.self_us_p50"], err = wireSelf(d.url, ref, keys)
	ref.close()
	if err != nil {
		return nil, nil, err
	}
	db, ks, _ := workload.MultiComponent(hotComponents, hotBlocks, hotBlockSize)
	cfg := replayConfig{ladder: ladderFor(0, 0), weights: workload.AnnotationMap(in.anns)}
	err = replayTwice(e, m, "serve-hot", replayHot, func(t *tracer, dir string) (*pipeline, time.Duration, error) {
		return replayServing(t, dir, db, ks, cfg, keys, seq, replayHot, nil, 0)
	})
	return m, phases, err
}

func traceChurn(e *env, d *daemon, in *servingInputs, feed *opsFeed, keys, seq []request) (metrics, []*phase, error) {
	m := metrics{}
	cons := &consistency{}
	phases, err := outsideIn(e, m, d.url, []int{d.pid()}, nil, seq, churnRate, cons.check, func(fn func()) error {
		return churn(d.url, feed, serveApplied, fn)
	})
	if err != nil {
		return nil, nil, err
	}
	if err := quiesce(d.url, feed, serveApplied); err != nil {
		return nil, nil, err
	}
	lagMetrics(m, feed)
	// The reference opens a copy of the daemon's settled snapshot, so
	// both answer from the same instance.
	settled := filepath.Join(e.dir, "settled.cqs")
	if err := copyFile(in.snapshot, settled); err != nil {
		return nil, nil, err
	}
	ref, err := newReference(server.Config{SnapshotPath: settled, ProbsPath: in.probs,
		ExactBudget: churnBudget, Eps: churnEps, CompactBytes: -1})
	if err != nil {
		return nil, nil, err
	}
	m["wire.self_us_p50"], err = wireSelf(d.url, ref, keys)
	ref.close()
	if err != nil {
		return nil, nil, err
	}
	db, ks, _ := workload.SkewedComponents(churnComps, churnMaxBlocks, churnSkew)
	cfg := replayConfig{ladder: ladderFor(churnBudget, churnEps), weights: workload.AnnotationMap(in.anns), compactBytes: churnCompact}
	perBatch := int(churnRate * churnOpsEvery.Seconds())
	err = replayTwice(e, m, "serve-churn", replayChurn, func(t *tracer, dir string) (*pipeline, time.Duration, error) {
		return replayServing(t, dir, db, ks, cfg, keys, seq, replayChurn, feed.ops, perBatch)
	})
	return m, phases, err
}

func traceFleet(e *env, f fleet, keys, seq []request, check checkFunc) (metrics, []*phase, error) {
	m := metrics{}
	pids := []int{f.coord.pid()}
	var workers []string
	for _, w := range f.workers {
		pids = append(pids, w.pid())
		workers = append(workers, w.url)
	}
	phases, err := outsideIn(e, m, f.coord.url, pids, workers, seq, fleetRate, check, func(fn func()) error {
		return churn(f.coord.url, f.feed, fleetApplied, fn)
	})
	if err != nil {
		return nil, nil, err
	}
	if err := quiesce(f.coord.url, f.feed, fleetApplied); err != nil {
		return nil, nil, err
	}
	lagMetrics(m, f.feed)
	if err := partialMetrics(m, f, workers); err != nil {
		return nil, nil, err
	}
	db, ks, _ := workload.MultiComponent(fleetComps, fleetBlocks, 2)
	cfg := replayConfig{ladder: ladderFor(fleetBudget, 0), compactBytes: fleetCompact}
	perBatch := int(fleetRate * fleetOpsEvery.Seconds())
	err = replayTwice(e, m, "fleet-churn", replayChurn, func(t *tracer, dir string) (*pipeline, time.Duration, error) {
		return replayServing(t, dir, db, ks, cfg, keys, seq, replayChurn, f.feed.ops, perBatch)
	})
	return m, phases, err
}

// partialMetrics times direct /v1/partial calls to every worker of the
// settled fleet, and the coordinator-side merge of one partial per
// worker against the current manifest.
func partialMetrics(m metrics, f fleet, workers []string) error {
	c := newClient()
	defer c.CloseIdleConnections()
	var us []float64
	parts := make([]*store.PartialFile, len(workers))
	for i := range 200 * len(workers) {
		w := i % len(workers)
		t0 := time.Now()
		resp, err := c.Get(workers[w] + "/v1/partial")
		if err != nil {
			return err
		}
		body, err := readAll(resp)
		if err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0))/1e3)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("worker %d answered %d to /v1/partial: %s", w, resp.StatusCode, body)
		}
		if parts[w], err = store.DecodePartial(body); err != nil {
			return err
		}
	}
	m["cluster.partial_us_p50"] = quantile(append([]float64(nil), us...), 0.5)
	m["cluster.partial_us_p99"] = quantile(us, 0.99)
	epochs, err := filepath.Glob(filepath.Join(f.in.dir, "shards", "epoch-*"))
	if err != nil || len(epochs) == 0 {
		return fmt.Errorf("no shard set under %s", f.in.dir)
	}
	sort.Strings(epochs)
	man, crc, err := store.ReadManifestFile(filepath.Join(epochs[len(epochs)-1], "manifest.cqsm"))
	if err != nil {
		return err
	}
	var merge []float64
	for range 200 {
		t0 := time.Now()
		if _, err := store.MergePartials(man, crc, parts); err != nil {
			return fmt.Errorf("merging the settled partials: %w", err)
		}
		merge = append(merge, float64(time.Since(t0))/1e3)
	}
	m["cluster.merge_us_p50"] = median(merge)
	return nil
}

// traceCold replays the corpus in-process untraced and then traced:
// each count's open, parse, counter build, plan and count are spans.
func traceCold(e *env, corpus []coldItem) (result, error) {
	const passes = 128
	n := passes * len(corpus)
	type outcome struct {
		total  []float64            // wall time per cold count, open to count
		ms     map[string][]float64 // count time per family
		units  map[string][]float64 // planned cost per family
		engine map[repaircount.EngineKind]int
		v      []verdict
	}
	run := func(t *tracer) (outcome, time.Duration, error) {
		o := outcome{ms: map[string][]float64{}, units: map[string][]float64{}, engine: map[repaircount.EngineKind]int{}}
		start := time.Now()
		for i := range n {
			it := corpus[i%len(corpus)]
			t.req = int32(i)
			begin := time.Now()
			root := t.begin("request")
			var snap *repaircount.Snapshot
			var q repaircount.Formula
			var c *repaircount.Counter
			var plan *repaircount.Plan
			var err error
			t.span("store.open", func() { snap, err = repaircount.OpenSnapshot(it.path) })
			if err != nil {
				return o, 0, err
			}
			t.span("query.parse", func() { q, err = repaircount.ParseQuery(it.query) })
			if err == nil {
				t.span("repairs.plan.counter_build", func() { c, err = snap.Counter(q) })
			}
			if err == nil {
				t.span("repairs.plan.explain", func() { plan, err = c.ExplainPlan(repaircount.EngineAuto) })
			}
			if err != nil {
				snap.Close()
				return o, 0, err
			}
			t0 := time.Now()
			var got *big.Int
			var eng repaircount.EngineKind
			t.span("repairs.count", func() { got, eng, err = c.Count() })
			o.ms[it.family] = append(o.ms[it.family], float64(time.Since(t0))/1e6)
			o.units[it.family] = append(o.units[it.family], float64(plan.Budget))
			o.engine[eng]++
			snap.Close()
			t.end(root)
			o.total = append(o.total, float64(time.Since(begin))/1e6)
			switch {
			case err != nil:
				o.v = append(o.v, fail)
			case got.Cmp(it.want) != 0:
				o.v = append(o.v, wrong)
			default:
				o.v = append(o.v, ok)
			}
		}
		return o, time.Since(start), nil
	}
	var ms0, ms1 runtime.MemStats
	steal0, err := stealSeconds()
	if err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&ms0)
	plain, base, err := run(newTracer(false))
	if err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&ms1)
	t := newTracer(true)
	o, traced, err := run(t)
	if err != nil {
		return result{}, err
	}
	steal1, err := stealSeconds()
	if err != nil {
		return result{}, err
	}
	const us, ms = time.Microsecond, time.Millisecond
	m := metrics{
		"trace.overhead_frac":            ratio(traced.Seconds(), base.Seconds()),
		"repairs.count.allocs_per_count": float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
		"store.open_ms":                  t.p50("store.open", ms),
		"query.parse_us_p50":             t.p50("query.parse", us),
		"repairs.counter_build_us_p50":   t.p50("repairs.plan.counter_build", us),
		"repairs.plan.explain_us_p50":    t.p50("repairs.plan.explain", us),
		"proc.loadgen_cpu_share":         1,
		"tail.latency_p99_ms":            quantile(plain.total, 0.99),
		"proc.steal_share":               (steal1 - steal0) / ((base + traced).Seconds() * float64(runtime.NumCPU())),
		"loadgen.achieved_rps":           float64(n) / base.Seconds(),
		"repairs.count.mc_ms_p50":        median(o.ms["mc"]),
		"repairs.count.skew_ms_p50":      median(o.ms["skew"]),
		"repairs.count.ie_ms_p50":        median(o.ms["ie"]),
		"repairs.count.emp_ms_p50":       median(o.ms["emp"]),
	}
	for kind, name := range map[repaircount.EngineKind]string{
		repaircount.EngineFactorized: "factorized", repaircount.EngineSafePlan: "safeplan", repaircount.EngineLambda1: "lambda1",
	} {
		m["repairs.count.engine_share."+name] = ratio(float64(o.engine[kind]), float64(n))
	}
	// Count time per planned cost unit, per family: a calibrated planner
	// keeps these close together.
	lo, hi := math.Inf(1), 0.0
	for fam, times := range o.ms {
		if u := median(o.units[fam]); u > 0 {
			r := median(times) * 1e6 / u
			lo, hi = min(lo, r), max(hi, r)
		}
	}
	if hi > 0 {
		m["repairs.plan.ns_per_unit_spread"] = hi / lo
	}
	// Snapshot build and size, over one corpus of each family.
	var bytesPerFact []float64
	for _, it := range corpus {
		size, err := fileSize(it.path)
		if err != nil {
			return result{}, err
		}
		bytesPerFact = append(bytesPerFact, float64(size)/float64(it.facts))
	}
	m["store.snapshot_bytes_per_fact"] = median(bytesPerFact)
	buildMS, err := coldBuildMS(e)
	if err != nil {
		return result{}, err
	}
	m["store.build_ms"] = buildMS
	t.selfTimes(m, n)
	if err := t.write(e, "count-cold"); err != nil {
		return result{}, err
	}
	p := &phase{}
	for i, v := range o.v {
		p.samples = append(p.samples, sample{req: i, v: v})
	}
	return finish(e, m, p)
}

// coldBuildMS times writing the corpus snapshots, per snapshot (median).
func coldBuildMS(e *env) (float64, error) {
	dir := filepath.Join(e.dir, "build")
	if err := mkdir(dir); err != nil {
		return 0, err
	}
	var out []float64
	for i, gen := range []func() (*relational.Database, *relational.KeySet){
		func() (*relational.Database, *relational.KeySet) {
			db, ks, _ := workload.MultiComponent(coldMC0, coldMC1, coldMC2)
			return db, ks
		},
		func() (*relational.Database, *relational.KeySet) {
			db, ks, _ := workload.SkewedComponents(coldSkew0, coldSkew1, coldSkewS)
			return db, ks
		},
		func() (*relational.Database, *relational.KeySet) {
			db, ks, _ := workload.IEHeavy(coldIE0, coldIE1, coldIE2)
			return db, ks
		},
	} {
		db, ks := gen()
		t0 := time.Now()
		if err := store.WriteFile(filepath.Join(dir, fmt.Sprintf("b%d.cqs", i)), db, ks); err != nil {
			return 0, err
		}
		out = append(out, float64(time.Since(t0))/1e6)
	}
	return median(out), nil
}

// copyFile copies src to dst.
func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}
