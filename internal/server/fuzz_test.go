package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repaircount/internal/server"
)

// FuzzProbeHTTP fuzzes the endpoint path, the query text and the format
// of a probe through Server.Handler over the small committed snapshot
// testdata/probe.cqs (built with `repairctl build` from an Employee/Dept
// instance). Tight budgets keep every rung reachable and every probe
// short. Whatever the input, the daemon must not panic or answer 500,
// and every non-2xx answer must be a structured {"error": {"code": ...}}
// body. The coordinator answers through the same handler, so this
// covers both daemons' probe surface.
func FuzzProbeHTTP(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("testdata", "probe.cqs"))
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "probe.cqs")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		f.Fatal(err)
	}
	s, err := server.New(server.Config{
		SnapshotPath: path,
		Deadline:     200 * time.Millisecond,
		ExactBudget:  16,
		MaxSamples:   4096,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	h := s.Handler()

	f.Fuzz(func(t *testing.T, path, q, format string) {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		r.URL.Path = path
		r.URL.RawQuery = url.Values{"q": {q}, "format": {format}}.Encode()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("%s q=%q format=%q: 500 %s", path, q, format, rec.Body)
		}
		if rec.Code >= 200 && rec.Code < 300 {
			return
		}
		var body struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error.Code == "" {
			t.Fatalf("%s q=%q format=%q: HTTP %d with an unstructured body %q", path, q, format, rec.Code, rec.Body)
		}
	})
}
