package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repaircount"
	"repaircount/internal/relational"
	"repaircount/internal/workload"
)

// This file holds what the churn workloads share: the ops stream
// appended at a fixed rate while the probes run, the update-lag probe
// that watches /v1/stats for each batch to be applied, the
// per-(epoch, version) consistency oracle, and the final check against
// an in-process replay of the same ops once the daemon has quiesced.

const (
	opsPerBatch = 3
	statsEvery  = 5 * time.Millisecond // update-lag resolution
)

// opsFeed appends a pre-generated op stream to the file a daemon tails.
type opsFeed struct {
	path     string
	interval time.Duration // one batch per interval
	ops      []workload.Update
	lines    []string

	mu      sync.Mutex
	sent    int       // ops appended so far
	size    int64     // bytes appended so far
	pending []pending // appended batches not yet seen applied
	lags    []float64 // ms from append to applied, per batch
}

type pending struct {
	at  time.Time
	end int64 // file size once the batch is appended
}

func newOpsFeed(path string, interval time.Duration, ops []workload.Update) (*opsFeed, error) {
	f := &opsFeed{path: path, interval: interval, ops: ops}
	for _, op := range ops {
		var sb strings.Builder
		if err := workload.FormatUpdates(&sb, []workload.Update{op}); err != nil {
			return nil, err
		}
		f.lines = append(f.lines, sb.String())
	}
	return f, writeFile(path, func(w io.Writer) error { return nil })
}

// appendBatch appends the next batch with one write.
func (f *opsFeed) appendBatch() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sent >= len(f.lines) {
		return fmt.Errorf("ops stream exhausted after %d ops", f.sent)
	}
	n := min(opsPerBatch, len(f.lines)-f.sent)
	chunk := strings.Join(f.lines[f.sent:f.sent+n], "")
	file, err := os.OpenFile(f.path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := file.WriteString(chunk); err != nil {
		file.Close()
		return err
	}
	if err := file.Close(); err != nil {
		return err
	}
	f.sent += n
	f.size += int64(len(chunk))
	f.pending = append(f.pending, pending{at: time.Now(), end: f.size})
	return nil
}

// observe resolves every batch the daemon has applied by now.
func (f *opsFeed) observe(applied int64, at time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := 0
	for ; i < len(f.pending) && f.pending[i].end <= applied; i++ {
		f.lags = append(f.lags, float64(at.Sub(f.pending[i].at))/1e6)
	}
	f.pending = f.pending[i:]
}

// appliedOps returns the ops appended so far.
func (f *opsFeed) appliedOps() []workload.Update {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops[:f.sent]
}

// appliedOffset reads from stats how many ops-file bytes the target has
// fully applied (for a fleet: and delivered to every worker), or -1.
type appliedOffset func(st map[string]any) int64

// serveApplied is the single daemon's view: the consumed ops offset.
func serveApplied(st map[string]any) int64 { return int64(num(st, "ops_offset")) }

// fleetApplied is the coordinator's view: the consumed ops offset once
// no worker is down, stale or has deltas pending.
func fleetApplied(st map[string]any) int64 {
	ws, _ := st["workers"].([]any)
	for _, wi := range ws {
		w, _ := wi.(map[string]any)
		if w["down"] == true || w["stale"] == true || num(w, "pending") != 0 {
			return -1
		}
	}
	return int64(num(st, "ops_offset"))
}

// churn runs fn while the feed appends batches and a poller records
// each batch's update lag; it returns once fn has and both have stopped.
func churn(base string, feed *opsFeed, applied appliedOffset, fn func()) error {
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(feed.interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				errs <- nil
				return
			case <-tick.C:
				if err := feed.appendBatch(); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		tick := time.NewTicker(statsEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				errs <- nil
				return
			case <-tick.C:
				if st, err := stats(c, base); err == nil {
					feed.observe(applied(st), time.Now())
				}
			}
		}
	}()
	fn()
	close(stop)
	wg.Wait()
	for range 2 {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

// quiesce waits until the target has applied everything appended.
func quiesce(base string, feed *opsFeed, applied appliedOffset) error {
	c := newClient()
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if st, err := stats(c, base); err == nil && applied(st) >= feed.size {
			feed.observe(applied(st), time.Now())
			return nil
		}
		time.Sleep(statsEvery)
	}
	return fmt.Errorf("target did not apply %d ops bytes within 60s", feed.size)
}

// answer is the union of the probe response fields the oracle reads.
type answer struct {
	Mode      string   `json:"mode"`
	Count     string   `json:"count"`
	Estimate  string   `json:"estimate"`
	Eps       float64  `json:"eps"`
	Entailed  *bool    `json:"entailed"`
	ProbLo    *float64 `json:"prob_lo"`
	ProbHi    *float64 `json:"prob_hi"`
	Admission string   `json:"admission"`
	Total     string   `json:"total"`
	Version   *uint64  `json:"version"`
	Epoch     *uint64  `json:"epoch"`
	Error     *struct {
		Code string `json:"code"`
	} `json:"error"`
}

// rungOK checks a response's status against the probe's expected rung:
// a refusal (429) is expected of reject-class probes only. Which of the
// other rungs answers is the daemon's choice (a structurally identical
// query's exact result may serve an approx-class probe), so it is
// reported through the admission shares, not judged here.
func rungOK(r request, status int, a *answer) bool {
	switch status {
	case http.StatusOK:
		return true
	case http.StatusTooManyRequests:
		return r.class == "reject" && a.Error != nil && a.Error.Code == "budget_exceeded"
	}
	return false
}

// value is the answer proper, without the fields that say how it was
// served (engine, fallback reason, sample counts).
func (a *answer) value() string {
	lo, hi := 0.0, 0.0
	if a.ProbLo != nil && a.ProbHi != nil {
		lo, hi = *a.ProbLo, *a.ProbHi
	}
	entailed := a.Entailed != nil && *a.Entailed
	return fmt.Sprintf("%s|%s|%s|%v|%v|%v|%s|%s", a.Mode, a.Count, a.Estimate, entailed, lo, hi, a.Admission, a.Total)
}

// consistency is the during-run oracle: answers to one probe at one
// (epoch, version) must agree. The cluster coordinator may serve one
// count by fan-out or locally, so the comparison is of the answer, not
// of the whole body.
type consistency struct {
	mu   sync.Mutex
	seen map[string]string
}

func (c *consistency) check(r request, status int, body []byte) verdict {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return fail
	}
	if !rungOK(r, status, &a) {
		return fail
	}
	if a.Version == nil || a.Epoch == nil {
		return ok
	}
	key := fmt.Sprintf("%s|%d|%d|%s", r.path, *a.Epoch, *a.Version, a.Mode)
	val := a.value()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen == nil {
		c.seen = map[string]string{}
	}
	if prev, dup := c.seen[key]; dup && prev != val {
		return wrong
	}
	c.seen[key] = val
	return ok
}

// finalCheck probes every key once after the ops have stopped and the
// target quiesced, comparing with an in-process replay of the same ops
// over the pristine snapshot. It returns the phase of those probes.
func finalCheck(base, pristine string, ops []workload.Update, weights map[string]float64, keys []request) (*phase, error) {
	snap, err := repaircount.OpenSnapshot(pristine)
	if err != nil {
		return nil, err
	}
	defer snap.Close()
	deltas := make([]repaircount.Delta, len(ops))
	for i, op := range ops {
		deltas[i] = repaircount.Insert(op.Fact)
		if op.Del {
			deltas[i] = repaircount.Delete(op.Fact)
		}
	}
	if _, err := snap.Apply(deltas...); err != nil {
		return nil, fmt.Errorf("replaying ops: %w", err)
	}
	check := func(r request, status int, body []byte) verdict {
		var a answer
		if err := json.Unmarshal(body, &a); err != nil || !rungOK(r, status, &a) {
			return fail
		}
		if r.query == "" || status != http.StatusOK {
			return ok
		}
		q, err := repaircount.ParseQuery(r.query)
		if err != nil {
			return fail
		}
		c, err := snap.Counter(q)
		if err != nil {
			return fail
		}
		if !answerMatches(r, &a, c, weights) {
			return wrong
		}
		return ok
	}
	return closedPass(base, keys, check), nil
}

// answerMatches compares one settled answer with the replayed counter.
func answerMatches(r request, a *answer, c *repaircount.Counter, weights map[string]float64) bool {
	switch r.endpoint {
	case "decide":
		return a.Entailed != nil && *a.Entailed == c.Decide()
	case "prob":
		iv, err := c.ProbabilityOf(c.FactWeights(weights))
		// Outward-rounded intervals of the same value must overlap.
		return err == nil && a.ProbLo != nil && a.ProbHi != nil && *a.ProbLo <= iv.Hi && iv.Lo <= *a.ProbHi
	case "count":
		n, _, err := c.Count()
		if err != nil {
			return false
		}
		if a.Mode == "exact" {
			return a.Count == n.String()
		}
		est, okF := new(big.Float).SetString(a.Estimate)
		if !okF {
			return false
		}
		exact := new(big.Float).SetInt(n)
		diff := new(big.Float).Sub(est, exact)
		tol := new(big.Float).Mul(exact, big.NewFloat(a.Eps))
		// The estimate is rendered to two decimals.
		tol.Add(tol, big.NewFloat(0.01))
		return diff.Abs(diff).Cmp(tol) <= 0
	}
	return true
}

// lagMetrics fills the update-lag percentiles.
func lagMetrics(m metrics, feed *opsFeed) {
	feed.mu.Lock()
	lags := append([]float64(nil), feed.lags...)
	feed.mu.Unlock()
	m["server.tailer.update_lag_p50_ms"] = quantile(lags, 0.5)
	m["server.tailer.update_lag_p99_ms"] = quantile(lags, 0.99)
}

// opsNeeded is how many ops a feed appending every interval needs for a
// run of the given seconds, with room for set-up and the final phases.
func opsNeeded(seconds float64, interval time.Duration) int {
	return int(opsPerBatch * (seconds + 30) / interval.Seconds())
}

// Bounds of the churn streams: see boundedOps.
const (
	opsMaxBlock  = 3 // facts per block
	opsFreshPool = 8 // fresh constants
)

// boundedOps reshapes an update stream so that a run's costs do not
// drift: the FPRAS sample bound grows with the active domain and the
// largest block, and every fresh constant of workload.UpdateStream
// would grow the domain for good. Fresh constants ("uk…", "uv…") are
// folded into a pool of opsFreshPool; ops on facts keep rejects are
// dropped, as are inserts that would grow a block past opsMaxBlock
// facts and ops the folding made redundant (an insert of a live fact, a
// delete of a dead one). The result is replayed against db as it goes,
// so it is valid in order; it holds at most n ops.
func boundedOps(all []workload.Update, db *relational.Database, n int, keep func(relational.Fact) bool) []workload.Update {
	live := map[string]bool{}
	size := map[string]int{} // facts per block, by predicate and key
	blockOf := func(f relational.Fact) string { return f.Pred + "|" + string(f.Args[0]) }
	for _, f := range db.Facts() {
		live[f.Canonical()] = true
		size[blockOf(f)]++
	}
	var out []workload.Update
	for _, op := range all {
		if !keep(op.Fact) {
			continue
		}
		args := make([]relational.Const, len(op.Fact.Args))
		for i, a := range op.Fact.Args {
			args[i] = foldFresh(a)
		}
		f := relational.Fact{Pred: op.Fact.Pred, Args: args}
		key, block := f.Canonical(), blockOf(f)
		switch {
		case op.Del && live[key]:
			live[key] = false
			size[block]--
		case !op.Del && !live[key] && size[block] < opsMaxBlock:
			live[key] = true
			size[block]++
		default:
			continue
		}
		if out = append(out, workload.Update{Del: op.Del, Fact: f}); len(out) == n {
			break
		}
	}
	return out
}

// foldFresh maps a fresh constant of workload.UpdateStream into the pool.
func foldFresh(c relational.Const) relational.Const {
	s := string(c)
	for _, prefix := range []string{"uk", "uv"} {
		if rest, ok := strings.CutPrefix(s, prefix); ok {
			if i, err := strconv.Atoi(rest); err == nil {
				return relational.Const(prefix + strconv.Itoa(i%opsFreshPool))
			}
		}
	}
	return c
}
