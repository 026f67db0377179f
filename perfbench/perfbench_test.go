package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repaircount"
	"repaircount/internal/relational"
	"repaircount/internal/store"
	"repaircount/internal/workload"
)

// stubDaemon answers every probe with want[path], except that the n-th
// request (1-based) gets override instead.
func stubDaemon(t *testing.T, want map[string][]byte, n int64, override func(w http.ResponseWriter)) *httptest.Server {
	t.Helper()
	var seen atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == n {
			override(w)
			return
		}
		w.Write(want[r.URL.RequestURI()])
	}))
	t.Cleanup(ts.Close)
	return ts
}

func countBody(count string) []byte {
	return []byte(fmt.Sprintf(`{"count":%q,"engine":"safeplan","epoch":0,"mode":"exact","version":0}`+"\n", count))
}

// TestOracleCatchesWrongCount gives the serve-hot oracle a daemon that
// answers one probe with a wrong count: the run must report failures.
func TestOracleCatchesWrongCount(t *testing.T) {
	reqs := []request{probe("count", "C0('k0', 'v0')", "exact"), probe("count", "C1('k0', 'v0')", "exact")}
	want := map[string][]byte{}
	for _, r := range reqs {
		want[r.path] = countBody("42")
	}
	ts := stubDaemon(t, want, 5, func(w http.ResponseWriter) { w.Write(countBody("43")) })
	p := openLoop(ts.URL, reqs, 500, 100*time.Millisecond, 1, rand.New(rand.NewPCG(1, 1)), byteOracle(want))
	e := &env{trace: true}
	res, err := finish(e, metrics{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["failed_frac"].Value <= 0 || res.Correct {
		t.Fatalf("a wrong count went unnoticed: failed_frac %v, correct %v", res.Metrics["failed_frac"].Value, res.Correct)
	}
	// The same daemon without the wrong answer passes.
	ts = stubDaemon(t, want, 0, nil)
	p = openLoop(ts.URL, reqs, 500, 100*time.Millisecond, 1, rand.New(rand.NewPCG(1, 1)), byteOracle(want))
	if res, err = finish(e, metrics{}, p); err != nil || res.Metrics["failed_frac"].Value != 0 || !res.Correct {
		t.Fatalf("correct answers judged failed: %+v %v", res, err)
	}
}

// TestConsistencyOracle flags two different answers to one probe at one
// (epoch, version), a refusal of a probe that is not reject-class, and
// accepts the expected refusal.
func TestConsistencyOracle(t *testing.T) {
	c := &consistency{}
	r := probe("count", "C0('k0', 'v0')", "exact")
	if v := c.check(r, 200, countBody("42")); v != ok {
		t.Fatalf("first answer: %v", v)
	}
	if v := c.check(r, 200, countBody("43")); v != wrong {
		t.Fatalf("a changed answer at the same version was judged %v", v)
	}
	refusal := []byte(`{"error":{"code":"budget_exceeded","message":"no"}}`)
	if v := c.check(r, 429, refusal); v != fail {
		t.Fatalf("a refused exact-class probe was judged %v", v)
	}
	if v := c.check(probe("count", "!C0('k0', 'v0')", "reject"), 429, refusal); v != ok {
		t.Fatalf("the expected refusal was judged %v", v)
	}
}

// TestFinalCheckAgainstReplay runs the settled-state oracle against a
// stub that answers one count wrongly after the same ops were applied.
func TestFinalCheckAgainstReplay(t *testing.T) {
	db, ks, _ := workload.MultiComponent(3, 3, 2)
	path := filepath.Join(t.TempDir(), "p.cqs")
	if err := store.WriteFile(path, db, ks); err != nil {
		t.Fatal(err)
	}
	ops := boundedOps(workload.UpdateStream(rand.New(rand.NewPCG(2, 2)), db, ks, 40, 0.5), db, 10, func(relational.Fact) bool { return true })
	keys := []request{probe("count", "C0('k0', 'v0')", "exact"), probe("count", "C1('k1', 'v1')", "exact")}
	// Exact answers from an independent replay over a fresh database.
	want := map[string][]byte{}
	for _, k := range keys {
		live := db.Clone()
		for _, op := range ops {
			if op.Del {
				live.Delete(op.Fact)
			} else if _, err := live.Insert(op.Fact); err != nil {
				t.Fatal(err)
			}
		}
		q, err := repaircount.ParseQuery(k.query)
		if err != nil {
			t.Fatal(err)
		}
		c, err := repaircount.NewCounter(live, ks, q)
		if err != nil {
			t.Fatal(err)
		}
		n, err := c.CountEnum()
		if err != nil {
			t.Fatal(err)
		}
		want[k.path] = countBody(n.String())
	}
	good := stubDaemon(t, want, 0, nil)
	p, err := finalCheck(good.URL, path, ops, nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	if _, failed, _ := p.counts(); failed != 0 {
		t.Fatalf("correct settled answers judged failed: %d", failed)
	}
	bad := stubDaemon(t, want, 2, func(w http.ResponseWriter) { w.Write(countBody("1")) })
	p, err = finalCheck(bad.URL, path, ops, nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, wrongs := p.counts(); wrongs != 1 {
		t.Fatalf("one wrong settled count, %d judged wrong", wrongs)
	}
}

// TestOpenLoopChargesStall stalls the daemon once: every request due
// during the stall must be charged the wait, and the generator must
// keep its schedule.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	r := probe("total", "", "exact")
	want := map[string][]byte{r.path: []byte("ok\n")}
	ts := stubDaemon(t, want, 10, func(w http.ResponseWriter) {
		time.Sleep(stall)
		w.Write(want[r.path])
	})
	p := openLoop(ts.URL, []request{r}, 200, time.Second, 1, rand.New(rand.NewPCG(3, 3)), byteOracle(want))
	if _, failed, _ := p.counts(); failed != 0 {
		t.Fatalf("%d requests failed", failed)
	}
	// The stalled request is the 10th sent, i.e. the 10th due.
	stalled := p.samples[9]
	behind := 0
	for _, s := range p.samples[10:] {
		if s.due >= stalled.due+stall-20*time.Millisecond {
			break
		}
		behind++
		// Due before the stall ended, so it waited for the rest of it.
		if waited := stalled.due + stall - s.due; s.lat < waited-5*time.Millisecond {
			t.Fatalf("request due %v after the stalled one was charged %v, want at least %v", s.due-stalled.due, s.lat, waited)
		}
	}
	if behind < 10 {
		t.Fatalf("only %d requests were due during the stall", behind)
	}
	lat := p.latenciesMS()
	if med := median(lat); med > 50 {
		t.Fatalf("median latency %.1fms: the stall leaked into requests after it", med)
	}
	if late := quantile(p.late, 0.5); late > 5 {
		t.Fatalf("generator median lateness %.1fms", late)
	}
}

// TestCalmWindows takes latency and throughput over the quarter of the
// windows with the least steal.
func TestCalmWindows(t *testing.T) {
	p := &phase{steal: []float64{0.1, 0, 0.2, 0.05, 0.3, 0.04, 0.2, 0.3}}
	for w := range 8 {
		for i := range 10 * (w + 1) {
			at := time.Duration(w)*window + time.Duration(i)*time.Millisecond
			p.samples = append(p.samples, sample{due: at, end: at, lat: time.Duration(w+1) * time.Millisecond})
		}
	}
	for _, ms := range p.calmLatenciesMS() {
		if ms != 2 && ms != 6 {
			t.Fatalf("latency %vms comes from a stolen window", ms)
		}
	}
	if got, want := p.calmThroughput(), 40/window.Seconds(); got != want {
		t.Fatalf("calm throughput %v/s, want %v: the mean of the calm windows", got, want)
	}
}

// TestClosedForms pins the oracle's closed forms to enumeration.
func TestClosedForms(t *testing.T) {
	db, ks, q := workload.MultiComponent(2, 3, 3)
	c, err := repaircount.NewCounter(db, ks, q)
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.CountEnum()
	if err != nil {
		t.Fatal(err)
	}
	if want := multiComponentCount(2, 3, 3); n.Cmp(want) != 0 {
		t.Fatalf("MultiComponent(2,3,3): enumeration %s, closed form %s", n, want)
	}
	edb, eks := workload.Employee(rand.New(rand.NewPCG(4, 4)), 6, 2, 0.9)
	for id2 := 2; id2 <= 6; id2++ {
		ec, err := repaircount.NewCounter(edb, eks, workload.SameDeptQuery(1, id2))
		if err != nil {
			t.Fatal(err)
		}
		n, err := ec.CountEnum()
		if err != nil {
			t.Fatal(err)
		}
		if want := sameDeptCount(edb, eks, 1, id2); n.Cmp(want) != 0 {
			t.Fatalf("SameDept(1,%d): enumeration %s, closed form %s", id2, n, want)
		}
	}
}

// TestBoundedOps checks the reshaped stream is valid in order and keeps
// its bounds.
func TestBoundedOps(t *testing.T) {
	db, ks, _ := workload.SkewedComponents(16, 8, 0.5)
	all := workload.UpdateStream(rand.New(rand.NewPCG(5, 5)), db, ks, 2000, 0.5)
	ops := boundedOps(all, db, 500, func(f relational.Fact) bool { return f.Pred != "S0" })
	if len(ops) != 500 {
		t.Fatalf("got %d ops, want 500", len(ops))
	}
	live := db.Clone()
	for i, op := range ops {
		if op.Fact.Pred == "S0" {
			t.Fatalf("op %d touches a kept-out predicate: %v", i, op.Fact)
		}
		if op.Del {
			if !live.Delete(op.Fact) {
				t.Fatalf("op %d deletes an absent fact %v", i, op.Fact)
			}
			continue
		}
		if added, err := live.Insert(op.Fact); err != nil || !added {
			t.Fatalf("op %d inserts a present fact %v (%v)", i, op.Fact, err)
		}
	}
	size := map[string]int{}
	for _, f := range live.Facts() {
		size[f.Pred+"|"+string(f.Args[0])]++
		for _, a := range f.Args {
			if foldFresh(a) != a {
				t.Fatalf("unfolded fresh constant in %v", f)
			}
		}
	}
	for b, n := range size {
		if n > opsMaxBlock {
			t.Fatalf("block %s has %d facts", b, n)
		}
	}
}

// TestTablesMatchBenchmarkJSON keeps BENCHMARK.json and the metric
// tables and workload registry of this package in step. fleet-churn is
// the one registered workload BENCHMARK.json leaves out (see
// workloads).
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	spec, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, file []benchMetric, table []metricDef) {
		if len(file) != len(table) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(file), len(table))
		}
		for i, d := range table {
			if f := file[i]; f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the table %+v", kind, i, f, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, EndToEnd)
	same("per_layer", spec.PerLayer, PerLayer)
	listed := map[string]bool{}
	for _, w := range spec.Workloads {
		listed[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not registered", w.Name)
		}
	}
	for name := range workloads {
		if !listed[name] && name != "fleet-churn" {
			t.Errorf("workload %s is registered but not in BENCHMARK.json", name)
		}
	}
}

// TestDiffVerdicts exercises the before/after verdicts.
func TestDiffVerdicts(t *testing.T) {
	bound := 0.1
	base := []float64{10, 10.2, 9.9, 10.1, 10}
	for _, c := range []struct {
		after []float64
		want  string
	}{
		{[]float64{10.1, 9.9, 10, 10.2, 10}, "unchanged"},
		{[]float64{8, 8.1, 7.9, 8, 8.2}, "improved"},
		{[]float64{12, 12.1, 11.9, 12, 12.2}, "regressed"},
		{[]float64{7, 14, 9, 12, 10}, "unresolved"},
	} {
		if _, got := judge(base, c.after, "lower", &bound); got != c.want {
			t.Errorf("after %v: %s, want %s", c.after, got, c.want)
		}
	}
	// The diff itself reads two recorded sets.
	dir := t.TempDir()
	for i, vals := range [][]float64{base, {14, 14.1, 13.9, 14, 14.2}} {
		path := filepath.Join(dir, fmt.Sprint(i))
		for _, v := range vals {
			res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{"latency_p50_ms": {Value: v, Unit: "ms"}}}
			if err := appendRecord(path, "serve-hot", 1, false, res); err != nil {
				t.Fatal(err)
			}
		}
	}
	out, err := os.CreateTemp(dir, "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := diff(out, filepath.Join(dir, "0"), filepath.Join(dir, "1"), ".."); err != nil {
		t.Fatal(err)
	}
	out.Close()
	text, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"serve-hot", "latency_p50_ms", "+40.0", "regressed"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("diff output lacks %q:\n%s", want, text)
		}
	}
}
