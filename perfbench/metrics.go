package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric, its unit, and whether "higher"
// or "lower" values are better.
type metricDef struct{ name, unit, better string }

// EndToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload. "Latency" and "throughput" are those of
// the workload's foreground request: an HTTP probe on the serving
// workloads, one cold library count on count-cold. Both are taken over
// the calmest quarter of the run's windows (phase.calmWindows).
var EndToEnd = []metricDef{
	{"setup_s", "s", "lower"},             // input generation + snapshot build + daemon start, up to the first correct answer (median of 5)
	{"latency_p50_ms", "ms", "lower"},     // open loop, timed from each request's due time (count-cold: closed loop)
	{"throughput_per_s", "1/s", "higher"}, // closed loop: probes/s on nproc connections, or counts/s on one goroutine
	{"rss_mb", "MB", "lower"},             // peak RSS (VmHWM) of the daemon(s), or of the benchmark process for count-cold
}

// PerLayer are the metrics of single layers, printed by traced runs. A
// layer a workload does not reach reports 0: it did no work there.
var PerLayer = []metricDef{
	// wire: net/http plus the JSON render.
	{"wire.self_us_p50", "us", "lower"},
	{"wire.resp_bytes_mean", "bytes", "lower"},
	{"http.count_p50_ms", "ms", "lower"},
	{"http.decide_p50_ms", "ms", "lower"},
	{"http.prob_p50_ms", "ms", "lower"},
	{"http.explain_p50_ms", "ms", "lower"},
	{"http.total_p50_ms", "ms", "lower"},
	// server.cache: ProbeCache.
	{"server.cache.hit_ratio", "ratio", "higher"},
	{"server.cache.evictions_per_kprobe", "count", "lower"},
	{"server.cache.fp_merge_ratio", "ratio", "higher"},
	{"server.cache.acquire_us_p50", "us", "lower"},
	// server.admission: Ladder.
	{"server.admission.price_us_p50", "us", "lower"},
	{"server.admission.exact_share", "ratio", "higher"},
	{"server.admission.approx_share", "ratio", "lower"},
	{"server.admission.reject_share", "ratio", "lower"},
	// server.tailer: the write path, seen from outside.
	{"server.tailer.update_lag_p50_ms", "ms", "lower"},
	{"server.tailer.update_lag_p99_ms", "ms", "lower"},
	// query: the parser.
	{"query.parse_us_p50", "us", "lower"},
	// repairs.plan: the planner.
	{"repairs.counter_build_us_p50", "us", "lower"},
	{"repairs.plan.explain_us_p50", "us", "lower"},
	{"repairs.plan.ns_per_unit_spread", "ratio", "lower"},
	// repairs.count: the exact engines.
	{"repairs.count.mc_ms_p50", "ms", "lower"},
	{"repairs.count.skew_ms_p50", "ms", "lower"},
	{"repairs.count.ie_ms_p50", "ms", "lower"},
	{"repairs.count.emp_ms_p50", "ms", "lower"},
	{"repairs.count.allocs_per_count", "count", "lower"},
	{"repairs.count.engine_share.factorized", "ratio", "lower"},
	{"repairs.count.engine_share.safeplan", "ratio", "higher"},
	{"repairs.count.engine_share.lambda1", "ratio", "higher"},
	{"repairs.recount_us_p50", "us", "lower"},
	// repairs.delta, repairs.weighted, core.fpras.
	{"repairs.delta.apply_us_p50", "us", "lower"},
	{"repairs.weighted.prob_us_p50", "us", "lower"},
	{"core.fpras.ms_p50", "ms", "lower"},
	{"core.fpras.samples_per_s", "1/s", "higher"},
	// store: snapshot, journal and compaction.
	{"store.build_ms", "ms", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.snapshot_bytes_per_fact", "bytes", "lower"},
	{"store.journal_append_us_p50", "us", "lower"},
	{"store.journal_bytes_per_op", "bytes", "lower"},
	{"store.compact_ms_p50", "ms", "lower"},
	{"store.compactions", "count", "lower"},
	// cluster: fan-out, partials and merge.
	{"cluster.partial_us_p50", "us", "lower"},
	{"cluster.partial_us_p99", "us", "lower"},
	{"cluster.partial_hit_ratio", "ratio", "higher"},
	{"cluster.merge_us_p50", "us", "lower"},
	{"cluster.fanout_share", "ratio", "higher"},
	{"cluster.local_fallback_share", "ratio", "lower"},
	{"cluster.reshards", "count", "lower"},
	{"cluster.integrity_errors", "count", "lower"},
	// Self time per request of each traced layer: its spans minus the
	// part of them their child spans cover, averaged over the replay.
	{"self.request_us", "us", "lower"},
	{"self.wire_render_us", "us", "lower"},
	{"self.server_cache_us", "us", "lower"},
	{"self.server_admission_us", "us", "lower"},
	{"self.query_us", "us", "lower"},
	{"self.repairs_plan_us", "us", "lower"},
	{"self.repairs_count_us", "us", "lower"},
	{"self.repairs_delta_us", "us", "lower"},
	{"self.repairs_weighted_us", "us", "lower"},
	{"self.core_fpras_us", "us", "lower"},
	{"self.store_us", "us", "lower"},
	// The latency tail of the foreground requests, over the same requests
	// as latency_p50_ms. On a small shared VM it follows the hypervisor's
	// steal too closely to repeat within a bound from run to run, so it
	// is reported here, beside proc.steal_share, instead of end to end.
	{"tail.latency_p99_ms", "ms", "lower"},
	// Process and harness.
	{"proc.server_cpu_ms_per_kprobe", "ms", "lower"},
	{"proc.loadgen_cpu_share", "ratio", "lower"},
	{"proc.steal_share", "ratio", "lower"},
	{"loadgen.late_ms_p99", "ms", "lower"},
	{"loadgen.offered_rps", "1/s", "higher"},
	{"loadgen.achieved_rps", "1/s", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.spans", "count", "lower"},
	{"failed_frac", "ratio", "lower"},
}

// metrics collects one run's values; emit fills in every metric of the
// requested table, so a run cannot silently omit one.
type metrics map[string]float64

func (m metrics) emit(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range m {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not in the table", name)
		}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
