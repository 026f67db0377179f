package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repaircount/internal/cluster"
)

func writeExampleDB(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "example.db")
	err := os.WriteFile(path, []byte(`
key Employee 1
Employee(1, Bob, HR)
Employee(1, Bob, IT)
Employee(2, Alice, IT)
Employee(2, Tim, IT)
`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

const exampleQuery = "exists x, y, z . (Employee(1, x, y) & Employee(2, z, y))"

func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return b.String()
}

func TestTotalAndBlocks(t *testing.T) {
	db := writeExampleDB(t)
	if got := strings.TrimSpace(runCmd(t, "total", "-db", db)); got != "4" {
		t.Fatalf("total = %q, want 4", got)
	}
	blocks := runCmd(t, "blocks", "-db", db)
	if !strings.Contains(blocks, "size=2") || !strings.Contains(blocks, "Employee(1,Bob,HR)") {
		t.Fatalf("blocks output wrong:\n%s", blocks)
	}
}

func TestCountDecideFreq(t *testing.T) {
	db := writeExampleDB(t)
	count := runCmd(t, "count", "-db", db, "-query", exampleQuery)
	if !strings.HasPrefix(count, "2\t") || !strings.Contains(count, "keywidth: 2") {
		t.Fatalf("count output wrong: %q", count)
	}
	if got := strings.TrimSpace(runCmd(t, "decide", "-db", db, "-query", exampleQuery)); got != "true" {
		t.Fatalf("decide = %q", got)
	}
	freq := runCmd(t, "freq", "-db", db, "-query", exampleQuery)
	if !strings.HasPrefix(freq, "1/2\t") {
		t.Fatalf("freq output wrong: %q", freq)
	}
}

// The two pinnable exact paths must agree with each other and with auto.
func TestCountExactFlag(t *testing.T) {
	db := writeExampleDB(t)
	factorized := runCmd(t, "count", "-db", db, "-query", exampleQuery, "-exact", "factorized")
	if !strings.HasPrefix(factorized, "2\t") || !strings.Contains(factorized, "algorithm: factorized") {
		t.Fatalf("factorized count output wrong: %q", factorized)
	}
	enum := runCmd(t, "count", "-db", db, "-query", exampleQuery, "-exact", "enum")
	if !strings.HasPrefix(enum, "2\t") || !strings.Contains(enum, "algorithm: enumeration") {
		t.Fatalf("enum count output wrong: %q", enum)
	}
	gray := runCmd(t, "count", "-db", db, "-query", exampleQuery, "-exact", "gray")
	if !strings.HasPrefix(gray, "2\t") || !strings.Contains(gray, "algorithm: gray") {
		t.Fatalf("gray count output wrong: %q", gray)
	}
	ie := runCmd(t, "count", "-db", db, "-query", exampleQuery, "-exact", "ie")
	if !strings.HasPrefix(ie, "2\t") || !strings.Contains(ie, "algorithm: inclusion-exclusion") {
		t.Fatalf("ie count output wrong: %q", ie)
	}
	compile := runCmd(t, "count", "-db", db, "-query", exampleQuery, "-exact", "compile")
	if !strings.HasPrefix(compile, "2\t") || !strings.Contains(compile, "algorithm: compile") {
		t.Fatalf("compile count output wrong: %q", compile)
	}
	var sb strings.Builder
	err := run([]string{"count", "-db", db, "-query", exampleQuery, "-exact", "bogus"}, &sb)
	if err == nil {
		t.Fatal("unknown -exact value accepted")
	}
	// The error must name every valid engine, not silently fall through.
	for _, name := range []string{"auto", "factorized", "gray", "ie", "enum"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("-exact error %q does not list engine %q", err, name)
		}
	}
	// enum falls back to FO enumeration on non-EP queries; factorized
	// rejects them.
	fo := runCmd(t, "count", "-db", db, "-query", "!Employee(1, 'Bob', 'HR')", "-exact", "enum")
	if !strings.HasPrefix(fo, "2\t") {
		t.Fatalf("FO enum count output wrong: %q", fo)
	}
	if err := run([]string{"count", "-db", db, "-query", "!Employee(1, 'Bob', 'HR')", "-exact", "factorized"}, &sb); err == nil {
		t.Fatal("factorized accepted an FO query")
	}
}

// -explain prints the exact-counting plan — per-component engine and cost —
// before the count, for auto and forced engines alike.
func TestCountExplain(t *testing.T) {
	db := writeExampleDB(t)
	out := runCmd(t, "count", "-db", db, "-query", exampleQuery, "-explain")
	if !strings.Contains(out, "plan: engine=factorized") {
		t.Fatalf("explain output missing plan line: %q", out)
	}
	if !strings.Contains(out, "component 0:") || !strings.Contains(out, "gray-cost=") {
		t.Fatalf("explain output missing component detail: %q", out)
	}
	if !strings.Contains(out, "\n2\t") {
		t.Fatalf("explain output missing the count itself: %q", out)
	}
	gray := runCmd(t, "count", "-db", db, "-query", exampleQuery, "-exact", "gray", "-explain")
	if !strings.Contains(gray, "-> gray") {
		t.Fatalf("forced-gray explain does not pin the engine: %q", gray)
	}
	ie := runCmd(t, "count", "-db", db, "-query", exampleQuery, "-exact", "ie", "-explain")
	if !strings.Contains(ie, "plan: engine=inclusion-exclusion") {
		t.Fatalf("ie explain output wrong: %q", ie)
	}
	compile := runCmd(t, "count", "-db", db, "-query", exampleQuery, "-exact", "compile", "-explain")
	if !strings.Contains(compile, "-> compile") || !strings.Contains(compile, "compile-cost=") {
		t.Fatalf("forced-compile explain does not pin the engine: %q", compile)
	}
}

func TestApprox(t *testing.T) {
	db := writeExampleDB(t)
	out := runCmd(t, "approx", "-db", db, "-query", exampleQuery, "-eps", "0.2", "-delta", "0.1", "-seed", "5")
	if !strings.Contains(out, "samples") {
		t.Fatalf("approx output wrong: %q", out)
	}
	var est float64
	if _, err := fmtSscanFirst(out, &est); err != nil {
		t.Fatalf("cannot parse estimate from %q: %v", out, err)
	}
	if est < 1.5 || est > 2.5 {
		t.Fatalf("estimate %.2f far from 2", est)
	}
}

func TestTupleBinding(t *testing.T) {
	db := writeExampleDB(t)
	out := runCmd(t, "count", "-db", db, "-query", "exists n . Employee(1, n, d)", "-tuple", "HR")
	if !strings.HasPrefix(out, "2\t") {
		t.Fatalf("bound count = %q, want 2", out)
	}
}

func TestRank(t *testing.T) {
	db := writeExampleDB(t)
	out := runCmd(t, "rank", "-db", db, "-query", "exists i . Employee(i, n, 'IT')")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("rank output wrong:\n%s", out)
	}
	if !strings.Contains(lines[0], "Alice") || !strings.Contains(lines[0], "1/2") {
		t.Fatalf("rank first line wrong: %q", lines[0])
	}
}

func TestAnalyze(t *testing.T) {
	db := writeExampleDB(t)
	out := runCmd(t, "analyze", "-db", db, "-query", exampleQuery)
	for _, want := range []string{
		"fragment:            CQ",
		"keywidth kw(Q,Σ):    2",
		"blocks:              2 total, 2 conflicting, max size m = 2",
		"certificates:",
		"decision #CQA>0:     true",
		"FPRAS sample bound:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
	// FO query: analyze reports the hardness facts instead of certificates.
	foOut := runCmd(t, "analyze", "-db", db, "-query", "!Employee(1, 'Bob', 'HR')")
	if !strings.Contains(foOut, "not existential positive") {
		t.Errorf("FO analyze output wrong:\n%s", foOut)
	}
}

func TestErrors(t *testing.T) {
	db := writeExampleDB(t)
	var sb strings.Builder
	cases := [][]string{
		{},                                      // no command
		{"bogus", "-db", db},                    // unknown command
		{"count", "-db", db},                    // missing query
		{"count"},                               // missing db
		{"count", "-db", "/nonexistent"},        // unreadable db
		{"count", "-db", db, "-query", "R(x))"}, // bad query
		{"freq", "-db", db, "-query", "Employee(1, n, d)"}, // free vars unbound
	}
	for _, args := range cases {
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestBuildAndSnapshotTransparency: build a .cqs from the text fixture,
// then run every counting command against both; outputs must be
// identical, the format detected by content rather than extension.
func TestBuildAndSnapshotTransparency(t *testing.T) {
	db := writeExampleDB(t)
	snapPath := filepath.Join(t.TempDir(), "example.snapshot") // deliberately not .cqs
	out := runCmd(t, "build", "-db", db, "-o", snapPath)
	if !strings.Contains(out, snapPath) || !strings.Contains(out, "4 facts") {
		t.Fatalf("build output wrong: %q", out)
	}
	for _, args := range [][]string{
		{"total"},
		{"blocks"},
		{"count", "-query", exampleQuery},
		{"count", "-query", exampleQuery, "-exact", "factorized"},
		{"decide", "-query", exampleQuery},
		{"freq", "-query", exampleQuery},
		{"approx", "-query", exampleQuery, "-seed", "3"},
		{"analyze", "-query", exampleQuery},
		{"rank", "-query", "exists i . Employee(i, n, 'IT')"},
	} {
		text := runCmd(t, append([]string{args[0], "-db", db}, args[1:]...)...)
		snap := runCmd(t, append([]string{args[0], "-db", snapPath}, args[1:]...)...)
		if text != snap {
			t.Errorf("%v diverges between text and snapshot:\ntext: %q\nsnap: %q", args, text, snap)
		}
	}
}

// TestBuildDefaultOutput derives the .cqs path from the input path.
func TestBuildDefaultOutput(t *testing.T) {
	db := writeExampleDB(t)
	out := runCmd(t, "build", "-db", db)
	want := strings.TrimSuffix(db, ".db") + ".cqs"
	if !strings.Contains(out, want) {
		t.Fatalf("build output %q does not mention %s", out, want)
	}
	if got := strings.TrimSpace(runCmd(t, "total", "-db", want)); got != "4" {
		t.Fatalf("total over default-built snapshot = %q, want 4", got)
	}
}

// TestStdinInstance feeds both formats through -db -.
func TestStdinInstance(t *testing.T) {
	dbPath := writeExampleDB(t)
	text, err := os.ReadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { stdin = os.Stdin }()

	stdin = strings.NewReader(string(text))
	if got := strings.TrimSpace(runCmd(t, "total", "-db", "-")); got != "4" {
		t.Fatalf("total from text stdin = %q, want 4", got)
	}

	stdin = strings.NewReader(string(text))
	snapPath := filepath.Join(t.TempDir(), "out.cqs")
	runCmd(t, "build", "-db", "-", "-o", snapPath)
	snapBytes, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	stdin = strings.NewReader(string(snapBytes))
	if got := strings.TrimSpace(runCmd(t, "decide", "-db", "-", "-query", exampleQuery)); got != "true" {
		t.Fatalf("decide from snapshot stdin = %q, want true", got)
	}

	// build from stdin requires an explicit output path.
	stdin = strings.NewReader(string(text))
	var sb strings.Builder
	if err := run([]string{"build", "-db", "-"}, &sb); err == nil {
		t.Fatal("build -db - without -o succeeded")
	}
}

// TestTextPredicateNamedCQS1: a text instance whose first fact uses a
// predicate literally named CQS1 must still parse as text (format
// sniffing checks the binary version word, not just the magic).
func TestTextPredicateNamedCQS1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tricky.db")
	if err := os.WriteFile(path, []byte("key CQS1 1\nCQS1(a, b)\nCQS1(a, c)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(runCmd(t, "total", "-db", path)); got != "2" {
		t.Fatalf("total over CQS1-predicate text instance = %q, want 2", got)
	}
}

// TestNonSeekablePath: format sniffing must not require a seekable file —
// FIFOs and process substitution (`-db <(...)`) worked before snapshots
// existed and must keep working.
func TestNonSeekablePath(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("uses /proc/self/fd to name a pipe")
	}
	text, err := os.ReadFile(writeExampleDB(t))
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	go func() {
		w.Write(text)
		w.Close()
	}()
	path := fmt.Sprintf("/proc/self/fd/%d", r.Fd())
	if got := strings.TrimSpace(runCmd(t, "total", "-db", path)); got != "4" {
		t.Fatalf("total over pipe path = %q, want 4", got)
	}
}

// TestMissingFileError: a nonexistent path gets the explicit message, not
// a bare open error.
func TestMissingFileError(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"count", "-db", "/no/such/instance.db", "-query", exampleQuery}, &sb)
	if err == nil || !strings.Contains(err.Error(), `does not exist`) {
		t.Fatalf("missing-file error = %v, want a does-not-exist message", err)
	}
}

// TestCorruptSnapshotError: flipping a byte in a .cqs must surface the
// checksum failure.
func TestCorruptSnapshotError(t *testing.T) {
	db := writeExampleDB(t)
	snapPath := filepath.Join(t.TempDir(), "corrupt.cqs")
	runCmd(t, "build", "-db", db, "-o", snapPath)
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"total", "-db", snapPath}, &sb); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt snapshot error = %v, want corruption message", err)
	}
}

// fmtSscanFirst extracts the leading float from a line.
func fmtSscanFirst(s string, v *float64) (int, error) {
	f, err := strconv.ParseFloat(strings.Fields(s)[0], 64)
	*v = f
	return 1, err
}

// TestApplyAndCompact drives the journal lifecycle end to end from the
// CLI: build a snapshot, append ops, verify every command sees the mutated
// instance, compact, and verify identical outputs from base+journal, the
// compacted reseal, and the equivalent text instance.
func TestApplyAndCompact(t *testing.T) {
	dir := t.TempDir()
	dbPath := writeExampleDB(t)
	snapPath := filepath.Join(dir, "example.cqs")
	runCmd(t, "build", "-db", dbPath, "-o", snapPath)

	opsPath := filepath.Join(dir, "stream.ops")
	if err := os.WriteFile(opsPath, []byte(`
# toggle Tim out, add a third employee in HR
- Employee(2, Tim, IT)
+ Employee(3, Zoe, HR)
+ Employee(3, Zoe, IT)
`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCmd(t, "apply", "-db", snapPath, "-ops", opsPath)
	if !strings.Contains(out, "3 ops appended") {
		t.Fatalf("apply output %q", out)
	}

	// Equivalent text instance after the ops.
	textPath := filepath.Join(dir, "mutated.db")
	if err := os.WriteFile(textPath, []byte(`
key Employee 1
Employee(1, Bob, HR)
Employee(1, Bob, IT)
Employee(2, Alice, IT)
Employee(3, Zoe, HR)
Employee(3, Zoe, IT)
`), 0o644); err != nil {
		t.Fatal(err)
	}
	compactPath := filepath.Join(dir, "compact.cqs")
	runCmd(t, "compact", "-db", snapPath, "-o", compactPath)

	for _, cmd := range [][]string{
		{"total"},
		{"blocks"},
		{"count", "-query", exampleQuery},
		{"count", "-query", exampleQuery, "-exact", "factorized"},
		{"decide", "-query", exampleQuery},
		{"freq", "-query", exampleQuery},
	} {
		want := runCmd(t, append(cmd, "-db", textPath)...)
		journaled := runCmd(t, append(cmd, "-db", snapPath)...)
		compacted := runCmd(t, append(cmd, "-db", compactPath)...)
		if journaled != want {
			t.Fatalf("%v: journaled %q vs text %q", cmd, journaled, want)
		}
		if compacted != want {
			t.Fatalf("%v: compacted %q vs text %q", cmd, compacted, want)
		}
	}

	// apply reads ops from stdin with -ops -.
	old := stdin
	stdin = strings.NewReader("+ Employee(2, Ann, HR)\n") // conflicts with Alice: total doubles
	out = runCmd(t, "apply", "-db", snapPath)
	stdin = old
	if !strings.Contains(out, "1 ops appended") {
		t.Fatalf("stdin apply output %q", out)
	}
	afterTotal := runCmd(t, "total", "-db", snapPath)
	if afterTotal == runCmd(t, "total", "-db", compactPath) {
		t.Fatal("second journal block not visible")
	}

	// Guard rails: apply refuses text instances and compact requires -o.
	if err := run([]string{"apply", "-db", textPath, "-ops", opsPath}, io.Discard); err == nil {
		t.Fatal("apply on a text instance succeeded")
	}
	if err := run([]string{"compact", "-db", snapPath}, io.Discard); err == nil {
		t.Fatal("compact without -o succeeded")
	}
}

// Full sharding pipeline through the CLI: build → shard → count -shard per
// shard → merge must reproduce the direct count exactly.
func TestShardPipelineCLI(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "skew.db")
	if err := os.WriteFile(db, []byte(`
key S0 1
key S1 1
key S2 1
S0(a, v0)
S0(a, v1)
S0(b, v0)
S0(b, v1)
S1(c, v0)
S1(c, v1)
S1(d, v0)
S1(d, v1)
S2(e, v0)
S2(e, v1)
`), 0o644); err != nil {
		t.Fatal(err)
	}
	q := "(exists x, y . (S0(x,'v0') & S0(y,'v1'))) | (exists x, y . (S1(x,'v0') & S1(y,'v1'))) | (exists x, y . (S2(x,'v0') & S2(y,'v1')))"
	snap := filepath.Join(dir, "skew.cqs")
	runCmd(t, "build", "-db", db, "-o", snap)
	direct := strings.SplitN(runCmd(t, "count", "-db", snap, "-query", q, "-workers", "2"), "\t", 2)[0]

	shardDir := filepath.Join(dir, "shards")
	out := runCmd(t, "shard", "-db", snap, "-query", q, "-k", "3", "-o", shardDir, "-explain")
	if !strings.Contains(out, "shard 0:") || !strings.Contains(out, "cost=") ||
		!strings.Contains(out, "excluded factor:") || !strings.Contains(out, "manifest digest") {
		t.Fatalf("shard -explain output wrong:\n%s", out)
	}
	manifest := filepath.Join(shardDir, "manifest.cqsm")
	var partials []string
	for s := 0; s < 3; s++ {
		shardSnap := filepath.Join(shardDir, fmt.Sprintf("shard-%03d.cqs", s))
		partial := filepath.Join(shardDir, fmt.Sprintf("part-%d.cqsp", s))
		out := runCmd(t, "count", "-db", shardSnap, "-query", q, "-shard", manifest, "-partial", partial)
		if !strings.Contains(out, "inner ") || !strings.Contains(out, "nonent ") {
			t.Fatalf("count -shard output wrong: %q", out)
		}
		partials = append(partials, partial)
	}
	merged := strings.TrimSpace(runCmd(t, "merge", "-manifest", manifest, partials[0], partials[1], partials[2]))
	if merged != direct {
		t.Fatalf("merge = %s, direct count = %s", merged, direct)
	}
	// 2^5 − 2^3 = 24 pins the arithmetic end to end.
	if merged != "24" {
		t.Fatalf("merge = %s, closed form 24", merged)
	}

	// Incomplete and mixed sets must fail, never miscount.
	var sb strings.Builder
	if err := run([]string{"merge", "-manifest", manifest, partials[0]}, &sb); err == nil {
		t.Fatal("merge accepted an incomplete partial set")
	}
	if err := run([]string{"merge", "-manifest", manifest, partials[0], partials[1], partials[1]}, &sb); err == nil {
		t.Fatal("merge accepted a duplicated partial")
	}

	// A snapshot outside the shard set must be refused by count -shard.
	if err := run([]string{"count", "-db", snap, "-query", q, "-shard", manifest,
		"-partial", filepath.Join(dir, "bogus.cqsp")}, &sb); err == nil {
		t.Fatal("count -shard accepted a non-shard snapshot")
	}
	// So must the wrong query.
	if err := run([]string{"count", "-db", filepath.Join(shardDir, "shard-000.cqs"),
		"-query", "exists x . S0(x, 'v0')", "-shard", manifest,
		"-partial", filepath.Join(dir, "bogus.cqsp")}, &sb); err == nil {
		t.Fatal("count -shard accepted a foreign query")
	}
}

// -workers is accepted by every exact engine spelling.
func TestCountWorkersFlag(t *testing.T) {
	db := writeExampleDB(t)
	for _, exact := range []string{"", "factorized", "gray", "ie", "enum"} {
		args := []string{"count", "-db", db, "-query", exampleQuery, "-workers", "2"}
		if exact != "" {
			args = append(args, "-exact", exact)
		}
		out := runCmd(t, args...)
		if !strings.HasPrefix(out, "2\t") {
			t.Fatalf("-exact %q -workers 2: output %q", exact, out)
		}
	}
}

// coordinate takes the daemon flags serve takes: with -probs it answers
// /v1/prob with the same interval serve answers over the same snapshot,
// and that interval is not the uniform one a dropped -probs would serve.
func TestCoordinateServesProbs(t *testing.T) {
	dir := t.TempDir()
	probs := filepath.Join(dir, "weights.probs")
	if err := os.WriteFile(probs, []byte("0.9\tEmployee(1, Bob, HR)\n0.2\tEmployee(2, Tim, IT)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := writeExampleDB(t)
	snapshot := func(name string) string {
		path := filepath.Join(dir, name)
		runCmd(t, "build", "-db", db, "-o", path)
		return path
	}
	w, err := cluster.NewWorker(cluster.WorkerConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	peer := httptest.NewServer(w.Handler())
	t.Cleanup(func() {
		peer.Close()
		w.Close()
	})

	// Drive each daemon's handler in-process instead of listening.
	defer func(orig func(io.Writer, string, http.Handler) error) { listen = orig }(listen)
	var interval string
	listen = func(_ io.Writer, _ string, h http.Handler) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/prob?q="+url.QueryEscape(exampleQuery), nil))
		var body struct {
			Lo float64 `json:"prob_lo"`
			Hi float64 `json:"prob_hi"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusOK {
			return fmt.Errorf("prob probe: HTTP %d %s (%v)", rec.Code, rec.Body, err)
		}
		interval = fmt.Sprintf("[%v, %v]", body.Lo, body.Hi)
		return nil
	}
	runCmd(t, "serve", "-db", snapshot("uniform.cqs"), "-addr", "127.0.0.1:0")
	uniform := interval
	runCmd(t, "serve", "-db", snapshot("serve.cqs"), "-probs", probs, "-addr", "127.0.0.1:0")
	served := interval
	runCmd(t, "coordinate", "-db", snapshot("coord.cqs"), "-probs", probs, "-query", exampleQuery,
		"-peers", peer.URL, "-shard-dir", filepath.Join(dir, "shards"), "-addr", "127.0.0.1:0")
	if interval != served {
		t.Fatalf("coordinate -probs answered %s, serve -probs %s", interval, served)
	}
	if served == uniform {
		t.Fatalf("-probs did not move the interval off the uniform %s", uniform)
	}
}
