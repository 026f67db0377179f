package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repaircount/internal/relational"
	"repaircount/internal/workload"
)

// fleet-churn: `repairctl coordinate` over MultiComponent(64, 8, 2) with
// one `repairctl worker` per core, under an ops stream whose journal
// threshold forces re-shards during the run. The mix is the partition
// query (fanned out to the workers, or counted locally while deltas have
// broken the placement), ground atoms (always served locally) and
// decide. It is the only workload that runs internal/cluster.

const (
	fleetComps, fleetBlocks = 32, 6
	fleetRate               = 500
	fleetCompact            = 1024
	// fleetOpsEvery paces the ops stream: 15 ops/s in batches of 3.
	fleetOpsEvery = 200 * time.Millisecond
	fleetBudget   = 1 << 20 // admits the partition query exactly, fanned out or local
	fleetSeq      = 1 << 15
)

// fleetRequests returns the working set and the probe sequence.
func fleetRequests(seed uint64, partition string) (keys, seq []request) {
	rng := rngFor(seed, 7)
	seen := map[string]bool{}
	var atoms []string
	for len(atoms) < 300 {
		a := fmt.Sprintf("C%d('k%d', 'v%d')", rng.IntN(fleetComps), rng.IntN(fleetBlocks), rng.IntN(2))
		if !seen[a] {
			seen[a] = true
			atoms = append(atoms, a)
		}
	}
	mix := []probeClass{
		{"count", "exact", 0.40, []string{partition}},
		{"count", "exact", 0.40, atoms},
		{"decide", "exact", 0.20, atoms[:100]},
	}
	for _, c := range mix {
		for _, q := range c.keys {
			keys = append(keys, probe(c.endpoint, q, c.class))
		}
	}
	seq = make([]request, fleetSeq)
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

// fleetOps is the fleet's bounded update stream.
func fleetOps(seed uint64, db *relational.Database, ks *relational.KeySet, n int) []workload.Update {
	all := workload.UpdateStream(rngFor(seed, 9), db, ks, 4*n, 0.5)
	return boundedOps(all, db, n, func(relational.Fact) bool { return true })
}

// fleet is one running coordinator and its workers.
type fleet struct {
	in      *servingInputs
	feed    *opsFeed
	coord   *daemon
	workers []*daemon
}

func (f fleet) stop() {
	f.coord.stop()
	for _, w := range f.workers {
		w.stop()
	}
}

// peakRSS sums the peak RSS of every process of the fleet.
func (f fleet) peakRSS() (float64, error) {
	total := 0.0
	for _, d := range append([]*daemon{f.coord}, f.workers...) {
		mb, err := peakRSSMB(d.pid())
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

func fleetChurn(e *env) (result, error) {
	_, _, q := workload.MultiComponent(fleetComps, fleetBlocks, 2)
	partition := q.String()
	keys, seq := fleetRequests(e.seed, partition)
	want := multiComponentCount(fleetComps, fleetBlocks, 2).String()
	s, setup, err := setupRepeated(func(i int) (fleet, error) {
		db, ks, _ := workload.MultiComponent(fleetComps, fleetBlocks, 2)
		in, err := writeServingInputs(filepath.Join(e.dir, fmt.Sprintf("setup-%d", i)), db, ks, rngFor(e.seed, 8), keys)
		if err != nil {
			return fleet{}, err
		}
		feed, err := newOpsFeed(in.ops, fleetOpsEvery, fleetOps(e.seed, db, ks, opsNeeded(e.seconds, fleetOpsEvery)))
		if err != nil {
			return fleet{}, err
		}
		f := fleet{in: in, feed: feed}
		var peers []string
		for w := range conns() {
			dir := filepath.Join(in.dir, fmt.Sprintf("worker-%d", w))
			if err := mkdir(dir); err != nil {
				return fleet{}, err
			}
			d, err := e.procs.start(e.bin, dir+".log", "worker", "-dir", dir, "-addr", "127.0.0.1:0")
			if err != nil {
				f.stop()
				return fleet{}, err
			}
			f.workers = append(f.workers, d)
			peers = append(peers, d.url)
		}
		shards := filepath.Join(in.dir, "shards")
		f.coord, err = e.procs.start(e.bin, filepath.Join(in.dir, "coordinate.log"),
			"coordinate", "-db", in.snapshot, "-query", partition, "-peers", strings.Join(peers, ","),
			"-shard-dir", shards, "-ops", in.ops, "-addr", "127.0.0.1:0",
			"-poll", churnPoll.String(), "-compact-bytes", strconv.Itoa(fleetCompact),
			"-exact-budget", strconv.Itoa(fleetBudget))
		if err != nil {
			f.stop()
			return fleet{}, err
		}
		if err := firstAnswer(f.coord.url, probe("count", partition, "exact"), expectCount(want)); err != nil {
			f.stop()
			return fleet{}, err
		}
		return f, nil
	}, fleet.stop)
	if err != nil {
		return result{}, err
	}
	cons := &consistency{}
	warm := closedPass(s.coord.url, keys, cons.check)
	var m metrics
	var phases []*phase
	if e.trace {
		m, phases, err = traceFleet(e, s, keys, seq, cons.check)
	} else {
		var open, closed *phase
		err = churn(s.coord.url, s.feed, fleetApplied, func() {
			open, closed = loadPhases(e, s.coord.url, seq, fleetRate, cons.check)
		})
		if err == nil {
			var rss float64
			if rss, err = s.peakRSS(); err == nil {
				m = metrics{}
				endToEnd(m, setup, open, closed, rss)
				phases = []*phase{open, closed}
			}
		}
	}
	if err != nil {
		return result{}, err
	}
	if err := quiesce(s.coord.url, s.feed, fleetApplied); err != nil {
		return result{}, err
	}
	final, err := finalCheck(s.coord.url, s.in.pristine, s.feed.appliedOps(), nil, keys)
	if err != nil {
		return result{}, err
	}
	return finish(e, m, append(append([]*phase{warm}, phases...), final)...)
}
