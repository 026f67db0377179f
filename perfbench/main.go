// Command perfbench is the repository's end-to-end benchmark. It
// generates every input from a seed, drives real repairctl processes (or
// the public library, for offline counting), checks every answer, and
// prints one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (EndToEnd); with
// -trace 1 they are the per-layer ones (PerLayer), taken from an
// in-process traced replay of the same request sequence plus counters
// scraped from /v1/stats and /proc around the measured window.
//
// Usage, from the repository root (perfbench/run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh -record runs.jsonl --workload count-cold --seed 2
//	bash perfbench/run.sh -diff before.jsonl after.jsonl
//
// The workloads are described in workloads.go and listed in the root
// BENCHMARK.json with the reason each was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"
)

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is what every workload run receives.
type env struct {
	root    string // checkout root
	bin     string // repairctl binary
	dir     string // this run's scratch directory (removed at exit)
	seed    uint64
	seconds float64
	trace   bool
	procs   *procSet
}

func main() {
	var (
		root     = flag.String("root", ".", "repository checkout root")
		bin      = flag.String("bin", "", "repairctl binary")
		wl       = flag.String("workload", "", "workload name: "+workloadNames())
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 30, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
		record   = flag.String("record", "", "append {workload, seed, trace, result} to this JSONL file")
		diffMode = flag.Bool("diff", false, "compare two recorded result sets: -diff BEFORE.jsonl AFTER.jsonl")
	)
	flag.Parse()
	debug.SetGCPercent(400)
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatalf("%v", err)
	}
	if *diffMode {
		if flag.NArg() != 2 {
			fatalf("-diff needs two result files")
		}
		if err := diff(os.Stdout, flag.Arg(0), flag.Arg(1), absRoot); err != nil {
			fatalf("%v", err)
		}
		return
	}
	run, ok := workloads[*wl]
	if !ok {
		fatalf("unknown workload %q (want %s)", *wl, workloadNames())
	}
	if *bin == "" || *seconds < 1 {
		fatalf("-bin and -seconds >= 1 are required")
	}
	dir := filepath.Join(absRoot, ".bench_run", fmt.Sprintf("%s-s%d-%d", *wl, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	e := &env{root: absRoot, bin: *bin, dir: dir, seed: *seed, seconds: float64(*seconds), trace: *trace == 1, procs: &procSet{}}
	cleanup := func() {
		e.procs.stopAll()
		os.RemoveAll(dir)
	}
	// Children die with the benchmark, whether it finishes, is
	// interrupted, or overruns its time limit.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanup()
		os.Exit(3)
	}()
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s")
		cleanup()
		os.Exit(4)
	})
	res, err := run(e)
	watchdog.Stop()
	cleanup()
	if err != nil {
		fatalf("%s: %v", *wl, err)
	}
	if *record != "" {
		if err := appendRecord(*record, *wl, *seed, *trace == 1, res); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// record is one line of a result set.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path, wl string, seed uint64, trace bool, res result) error {
	line, err := json.Marshal(record{Workload: wl, Seed: seed, Trace: trace, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
