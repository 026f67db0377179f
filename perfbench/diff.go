package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// This file is the before/after diff: two result sets recorded with
// -record, compared per workload and metric by median, quartiles and
// Δ%, with a verdict against the metric's bound from BENCHMARK.json.

// benchmarkFile is the part of BENCHMARK.json the diff reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// readRecords loads a result set: values per workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// summary is a metric's median and quartiles over a result set.
type summary struct{ q1, med, q3 float64 }

func summarize(xs []float64) summary {
	c := append([]float64(nil), xs...)
	return summary{quantile(c, 0.25), quantile(c, 0.5), quantile(c, 0.75)}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 { return ratio(s.q3-s.q1, math.Abs(s.med)) }

// judge judges after against before. worse is after's change in the
// metric's bad direction as a share of before's median. Without a bound
// (per-layer metrics) the larger of the two spreads stands in for it.
// A change inside the noise of either side is unresolved unless every
// run of one side beats every run of the other.
func judge(before, after []float64, better string, bound *float64) (float64, string) {
	b, a := summarize(before), summarize(after)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	worse := sign * ratio(a.med-b.med, math.Abs(b.med))
	noise := math.Max(b.spread(), a.spread())
	limit := noise
	if bound != nil {
		limit = *bound
	}
	allBetter, allWorse := true, true
	for _, x := range before {
		for _, y := range after {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
			if sign*(y-x) <= 0 {
				allWorse = false
			}
		}
	}
	switch {
	case allBetter && -worse > b.spread():
		return worse, "improved"
	case allWorse && worse > limit:
		return worse, "regressed"
	case bound != nil && noise > *bound:
		return worse, "unresolved"
	case worse > limit:
		return worse, "regressed"
	case -worse > math.Max(limit, b.spread()):
		return worse, "improved"
	}
	return worse, "unchanged"
}

// diff prints the comparison of two result sets.
func diff(w io.Writer, beforePath, afterPath, root string) error {
	spec, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	before, err := readRecords(beforePath)
	if err != nil {
		return err
	}
	after, err := readRecords(afterPath)
	if err != nil {
		return err
	}
	defs := append(append([]benchMetric(nil), spec.EndToEnd...), spec.PerLayer...)
	var names []string
	for wl := range before {
		if after[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbefore q1\tmedian\tq3\tafter q1\tmedian\tq3\tΔ%\tverdict\t")
	for _, wl := range names {
		for _, d := range defs {
			b, a := before[wl][d.Name], after[wl][d.Name]
			if len(b) == 0 || len(a) == 0 {
				continue
			}
			sb, sa := summarize(b), summarize(a)
			_, v := judge(b, a, d.Better, d.Bound)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%+.1f\t%s\t\n",
				wl, d.Name, d.Unit, sb.q1, sb.med, sb.q3, sa.q1, sa.med, sa.q3, 100*ratio(sa.med-sb.med, math.Abs(sb.med)), v)
		}
	}
	return tw.Flush()
}
