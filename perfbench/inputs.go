package main

import (
	"bufio"
	"fmt"
	"io"
	"math/big"
	"math/rand/v2"
	"net/url"
	"os"
	"path/filepath"

	"repaircount/internal/relational"
	"repaircount/internal/store"
	"repaircount/internal/workload"
)

// This file writes each workload's inputs into the run directory: the
// snapshot(s), the ops stream, the probe list with each probe's expected
// rung, and the per-fact probability annotations. The daemons receive
// only these files.

// rngFor derives an independent stream for one purpose from the seed.
func rngFor(seed uint64, purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^purpose))
}

// writeFile creates path and fills it through fill.
func writeFile(path string, fill func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := fill(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// servingInputs are the files one serving setup writes.
type servingInputs struct {
	dir, snapshot, pristine, probs, probes, ops string
	anns                                        []workload.ProbAnnotation
}

// writeServingInputs writes the snapshot (plus a pristine copy the
// oracle replays from), the annotations and the probe list into dir.
func writeServingInputs(dir string, db *relational.Database, ks *relational.KeySet, rng *rand.Rand, reqs []request) (*servingInputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &servingInputs{
		dir:      dir,
		snapshot: filepath.Join(dir, "serve.cqs"),
		pristine: filepath.Join(dir, "pristine.cqs"),
		probs:    filepath.Join(dir, "weights.probs"),
		probes:   filepath.Join(dir, "probes.list"),
		ops:      filepath.Join(dir, "stream.ops"),
	}
	for _, p := range []string{in.snapshot, in.pristine} {
		if err := store.WriteFile(p, db, ks); err != nil {
			return nil, err
		}
	}
	in.anns = workload.ProbStream(rng, db)
	if err := writeFile(in.probs, func(w io.Writer) error { return workload.FormatProbAnnotations(w, in.anns) }); err != nil {
		return nil, err
	}
	err := writeFile(in.probes, func(w io.Writer) error {
		for _, r := range reqs {
			if _, err := fmt.Fprintf(w, "%s\t%s\t%s\n", r.class, r.endpoint, r.query); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return in, nil
}

// probe builds one request.
func probe(endpoint, query, class string) request {
	path := "/v1/" + endpoint
	if query != "" {
		path += "?q=" + url.QueryEscape(query)
	}
	return request{endpoint: endpoint, query: query, class: class, path: path}
}

// pow returns b^e as a decimal string.
func pow(b, e int64) string {
	return new(big.Int).Exp(big.NewInt(b), big.NewInt(e), nil).String()
}

func mkdir(dir string) error { return os.MkdirAll(dir, 0o755) }
