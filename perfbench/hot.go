package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"path/filepath"

	"repaircount/internal/server"
	"repaircount/internal/workload"
)

// serve-hot: a read-only `repairctl serve` over MultiComponent(512, 16, 4)
// (4^8192 repairs, ~5000-digit counts). The probe mix is Zipf-skewed
// within each endpoint over a working set of 249 keys on 248 distinct
// query texts, which fits the default 512-entry probe cache, so after
// the warm pass every probe is a cache hit: wire, server.cache and the
// admission memo do all the work and no engine runs.

const (
	hotComponents, hotBlocks, hotBlockSize = 512, 16, 4
	// hotRate is the open-loop Poisson rate, well under the saturation
	// the closed-loop phase reports.
	hotRate = 1000
	hotSeq  = 1 << 16
)

// endpointShare is one endpoint's share of a probe sequence and how many
// distinct keys it draws from.
type endpointShare struct {
	endpoint string
	share    float64
	keys     int
}

var hotMix = []endpointShare{
	{"count", 0.50, 128},
	{"decide", 0.20, 48},
	{"prob", 0.10, 24},
	{"explain", 0.15, 48},
	{"total", 0.05, 1},
}

// hotAtom is a ground atom of the serve-hot instance.
func hotAtom(rng *rand.Rand) string {
	return fmt.Sprintf("C%d('k%d', 'v%d')", rng.IntN(hotComponents), rng.IntN(hotBlocks), rng.IntN(hotBlockSize))
}

// hotRequests returns the working set (each key once) and the probe
// sequence: an endpoint drawn by its fixed share, then a key of that
// endpoint by a Zipf(1.1) rank over a seeded permutation.
func hotRequests(seed uint64) (keys, seq []request) {
	rng := rngFor(seed, 1)
	perEndpoint := make([][]request, len(hotMix))
	for i, m := range hotMix {
		seen := map[string]bool{}
		for len(perEndpoint[i]) < m.keys {
			if m.endpoint == "total" {
				perEndpoint[i] = append(perEndpoint[i], probe("total", "", "exact"))
				break
			}
			q := hotAtom(rng)
			if seen[q] {
				continue
			}
			seen[q] = true
			perEndpoint[i] = append(perEndpoint[i], probe(m.endpoint, q, "exact"))
		}
		keys = append(keys, perEndpoint[i]...)
	}
	zipfs := make([]*rand.Zipf, len(hotMix))
	for i, m := range hotMix {
		if m.keys > 1 {
			zipfs[i] = rand.NewZipf(rng, 1.1, 1, uint64(m.keys-1))
		}
	}
	seq = make([]request, hotSeq)
	for n := range seq {
		u, i := rng.Float64(), 0
		for ; i < len(hotMix)-1 && u >= hotMix[i].share; i++ {
			u -= hotMix[i].share
		}
		k := 0
		if zipfs[i] != nil {
			k = int(zipfs[i].Uint64())
		}
		seq[n] = perEndpoint[i][k]
	}
	return keys, seq
}

func serveHot(e *env) (result, error) {
	keys, seq := hotRequests(e.seed)
	total := int64(hotComponents * hotBlocks)
	type inst struct {
		in *servingInputs
		d  *daemon
	}
	first := probe("count", "C0('k0', 'v0')", "exact")
	s, setup, err := setupRepeated(func(i int) (inst, error) {
		db, ks, _ := workload.MultiComponent(hotComponents, hotBlocks, hotBlockSize)
		in, err := writeServingInputs(filepath.Join(e.dir, fmt.Sprintf("setup-%d", i)), db, ks, rngFor(e.seed, 2), keys)
		if err != nil {
			return inst{}, err
		}
		d, err := e.procs.start(e.bin, filepath.Join(in.dir, "serve.log"),
			"serve", "-db", in.snapshot, "-addr", "127.0.0.1:0", "-probs", in.probs)
		if err != nil {
			return inst{}, err
		}
		// Every fact of a block is picked by a quarter of the repairs.
		if err := firstAnswer(d.url, first, expectCount(pow(hotBlockSize, total-1))); err != nil {
			d.stop()
			return inst{}, err
		}
		return inst{in, d}, nil
	}, func(s inst) { s.d.stop() })
	if err != nil {
		return result{}, err
	}

	// The oracle: every answer byte-compared with the in-process daemon's,
	// whose counts are checked against the closed forms first.
	ref, err := newReference(server.Config{SnapshotPath: s.in.snapshot, ProbsPath: s.in.probs})
	if err != nil {
		return result{}, err
	}
	want := map[string][]byte{}
	for _, k := range keys {
		status, body := ref.serve(k)
		if status != 200 {
			ref.close()
			return result{}, fmt.Errorf("reference answered %d to %s: %s", status, k.path, body)
		}
		if err := checkHotSemantics(k, body, total); err != nil {
			ref.close()
			return result{}, fmt.Errorf("reference answer to %s: %w", k.path, err)
		}
		want[k.path] = bytes.Clone(body)
	}
	ref.close()
	check := byteOracle(want)
	phases := []*phase{closedPass(s.d.url, keys, check)}

	var m metrics
	if e.trace {
		var traced []*phase
		m, traced, err = traceHot(e, s.d, s.in, keys, seq, hotRate, check)
		phases = append(phases, traced...)
	} else {
		open, closed := loadPhases(e, s.d.url, seq, hotRate, check)
		m = metrics{}
		rss, rerr := peakRSSMB(s.d.pid())
		if rerr != nil {
			return result{}, rerr
		}
		endToEnd(m, setup, open, closed, rss)
		phases = append(phases, open, closed)
	}
	if err != nil {
		return result{}, err
	}
	return finish(e, m, phases...)
}

// byteOracle accepts a response only when it is 200 and byte-identical
// to the wanted body for its path.
func byteOracle(want map[string][]byte) checkFunc {
	return func(r request, status int, body []byte) verdict {
		switch {
		case status != 200:
			return fail
		case !bytes.Equal(body, want[r.path]):
			return wrong
		}
		return ok
	}
}

// checkHotSemantics checks a reference answer of serve-hot against the
// closed forms: a ground atom over an existing fact is entailed by
// exactly a quarter of the 4^total repairs.
func checkHotSemantics(k request, body []byte, total int64) error {
	switch k.endpoint {
	case "count":
		return expectCount(pow(hotBlockSize, total-1))(body)
	case "total":
		if !bytes.Contains(body, []byte(`"total":"`+pow(hotBlockSize, total)+`"`)) {
			return fmt.Errorf("total is not 4^%d", total)
		}
	case "decide":
		if !bytes.Contains(body, []byte(`"entailed":true`)) {
			return fmt.Errorf("not entailed")
		}
	case "explain":
		if !bytes.Contains(body, []byte(`"admission":"exact"`)) {
			return fmt.Errorf("not admitted exactly")
		}
	}
	return nil
}

// closedPass sends every request once on one connection, untimed: the
// warm pass that fills the daemon's caches before measuring.
func closedPass(base string, reqs []request, check checkFunc) *phase {
	c := newClient()
	defer c.CloseIdleConnections()
	p := &phase{}
	for i, r := range reqs {
		v, n := do(c, base, r, check)
		p.samples = append(p.samples, sample{req: i, bytes: n, v: v})
	}
	return p
}

// finish tallies the phases into the result and emits the metric table
// the run prints.
func finish(e *env, m metrics, phases ...*phase) (result, error) {
	attempted, failed, wrongs := tally(phases...)
	if e.trace {
		m["failed_frac"] = ratio(float64(failed), float64(attempted))
	}
	defs := EndToEnd
	if e.trace {
		defs = PerLayer
	}
	out, err := m.emit(defs)
	if err != nil {
		return result{}, err
	}
	return result{Correct: wrongs == 0 && failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: out}, nil
}
