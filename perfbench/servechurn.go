package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repaircount/internal/relational"
	"repaircount/internal/workload"
)

// serve-churn: the serving daemon over SkewedComponents(256, 16, 0.5)
// while an ops stream is appended at a fixed rate. The query working set
// (about 1000 texts) is larger than the 512-entry cache, every applied
// batch moves the instance version, and the journal threshold forces a
// compaction (and a new epoch) every few seconds, so probes keep missing:
// query parsing, counter builds, admission pricing, exact recounts, the
// weighted counter and the FPRAS all run beside journal appends and
// compactions. The mix keeps fixed shares of the three admission rungs.

const (
	churnComps, churnMaxBlocks, churnSkew = 256, 16, 0.5
	// churnBudget admits ground atoms and the disjunct of a component of
	// at most 3 blocks exactly; the disjuncts of components 0 and 1 (16
	// and 11 blocks) degrade to the FPRAS.
	churnBudget = 64
	// churnApprox is how many leading components (8 or more blocks each)
	// serve the approx rung. The ops stream leaves them alone: one
	// deletion can make a disjunct cheap enough to count exactly.
	churnApprox  = 4
	churnEps     = 0.3
	churnRate    = 400
	churnCompact = 4096 // journal bytes that trigger a compaction
	churnPoll    = 20 * time.Millisecond
	// churnOpsEvery paces the ops stream: 60 ops/s in batches of 3.
	churnOpsEvery = 50 * time.Millisecond
	churnSeq      = 1 << 15
)

// probeClass is one slice of a probe mix: its share of the sequence and
// the keys it draws from uniformly.
type probeClass struct {
	endpoint, class string
	share           float64
	keys            []string
}

// churnBlocks is the block count of component i (workload.SkewedComponents).
func churnBlocks(i int) int {
	return max(2, int(float64(churnMaxBlocks)/math.Pow(float64(i+1), churnSkew)))
}

func disjunct(pred, x, y string) string {
	return fmt.Sprintf("(exists %s, %s . (%s(%s, 'v0') & %s(%s, 'v1')))", x, y, pred, x, pred, y)
}

// churnRequests returns the working set and the probe sequence.
func churnRequests(seed uint64) (keys, seq []request) {
	rng := rngFor(seed, 4)
	distinct := func(n int, gen func() string) []string {
		seen := map[string]bool{}
		var out []string
		for len(out) < n {
			if s := gen(); !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
		return out
	}
	atom := func() string {
		i := rng.IntN(churnComps)
		return fmt.Sprintf("S%d('k%d', 'v%d')", i, rng.IntN(churnBlocks(i)), rng.IntN(2))
	}
	atoms := distinct(600, atom)
	small := distinct(200, func() string {
		i := 16 + rng.IntN(churnComps-16) // components of at most 3 blocks
		return disjunct("S"+strconv.Itoa(i), "x", "y")
	})
	var big []string
	for _, v := range [][2]string{{"x", "y"}, {"a", "b"}, {"u", "w"}, {"p", "q"}} {
		for i := range churnApprox {
			big = append(big, disjunct("S"+strconv.Itoa(i), v[0], v[1]))
		}
	}
	negs := distinct(200, func() string { return "!" + atom() })
	mix := []probeClass{
		{"count", "exact", 0.30, atoms},
		{"decide", "exact", 0.10, atoms},
		{"explain", "exact", 0.10, atoms},
		{"prob", "exact", 0.10, atoms},
		{"count", "exact", 0.19, small},
		{"count", "approx", 0.01, big},
		{"count", "reject", 0.15, negs},
		{"total", "exact", 0.05, []string{""}},
	}
	for _, c := range mix {
		for _, q := range c.keys {
			keys = append(keys, probe(c.endpoint, q, c.class))
		}
	}
	seq = make([]request, churnSeq)
	for n := range seq {
		u, i := rng.Float64(), 0
		for ; i < len(mix)-1 && u >= mix[i].share; i++ {
			u -= mix[i].share
		}
		c := mix[i]
		seq[n] = probe(c.endpoint, c.keys[rng.IntN(len(c.keys))], c.class)
	}
	return keys, seq
}

// churnOps is an update stream that leaves the approx-rung components
// untouched.
func churnOps(seed uint64, db *relational.Database, ks *relational.KeySet, n int) []workload.Update {
	return boundedOps(workload.UpdateStream(rngFor(seed, 6), db, ks, 4*n, 0.5), db, n, func(f relational.Fact) bool {
		i, err := strconv.Atoi(strings.TrimPrefix(f.Pred, "S"))
		return err != nil || i >= churnApprox
	})
}

func serveChurn(e *env) (result, error) {
	keys, seq := churnRequests(e.seed)
	type inst struct {
		in   *servingInputs
		feed *opsFeed
		d    *daemon
	}
	first := probe("count", "S0('k0', 'v0')", "exact")
	s, setup, err := setupRepeated(func(i int) (inst, error) {
		db, ks, _ := workload.SkewedComponents(churnComps, churnMaxBlocks, churnSkew)
		blocks := int64(db.Len() / 2)
		in, err := writeServingInputs(filepath.Join(e.dir, fmt.Sprintf("setup-%d", i)), db, ks, rngFor(e.seed, 5), keys)
		if err != nil {
			return inst{}, err
		}
		ops := churnOps(e.seed, db, ks, opsNeeded(e.seconds, churnOpsEvery))
		feed, err := newOpsFeed(in.ops, churnOpsEvery, ops)
		if err != nil {
			return inst{}, err
		}
		d, err := e.procs.start(e.bin, filepath.Join(in.dir, "serve.log"),
			"serve", "-db", in.snapshot, "-addr", "127.0.0.1:0", "-probs", in.probs, "-ops", in.ops,
			"-poll", churnPoll.String(), "-compact-bytes", strconv.Itoa(churnCompact),
			"-exact-budget", strconv.Itoa(churnBudget), "-eps", strconv.FormatFloat(churnEps, 'g', -1, 64))
		if err != nil {
			return inst{}, err
		}
		// Every fact of a two-fact block is picked by half the repairs.
		if err := firstAnswer(d.url, first, expectCount(pow(2, blocks-1))); err != nil {
			d.stop()
			return inst{}, err
		}
		return inst{in, feed, d}, nil
	}, func(s inst) { s.d.stop() })
	if err != nil {
		return result{}, err
	}
	cons := &consistency{}
	warm := closedPass(s.d.url, keys, cons.check)
	var m metrics
	var phases []*phase
	if e.trace {
		m, phases, err = traceChurn(e, s.d, s.in, s.feed, keys, seq)
	} else {
		var open, closed *phase
		err = churn(s.d.url, s.feed, serveApplied, func() {
			open, closed = loadPhases(e, s.d.url, seq, churnRate, cons.check)
		})
		if err == nil {
			var rss float64
			if rss, err = peakRSSMB(s.d.pid()); err == nil {
				m = metrics{}
				endToEnd(m, setup, open, closed, rss)
				phases = []*phase{open, closed}
			}
		}
	}
	if err != nil {
		return result{}, err
	}
	if err := quiesce(s.d.url, s.feed, serveApplied); err != nil {
		return result{}, err
	}
	final, err := finalCheck(s.d.url, s.in.pristine, s.feed.appliedOps(), workload.AnnotationMap(s.in.anns), keys)
	if err != nil {
		return result{}, err
	}
	return finish(e, m, append(append([]*phase{warm}, phases...), final)...)
}
