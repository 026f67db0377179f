package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestNoHookPassesThrough(t *testing.T) {
	Clear()
	dir := t.TempDir()
	f, err := Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	if err := SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "b"))
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
}

func TestBudgetTornWrite(t *testing.T) {
	dir := t.TempDir()
	h := Inject(3)
	defer Clear()
	f, err := Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("hello"))
	if n != 3 || !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write: n=%d err=%v, want 3, ErrInjected", n, err)
	}
	if !h.Tripped() {
		t.Fatal("hook not tripped")
	}
	// Fail-stop: every later operation fails too.
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-trip write: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-trip sync: %v", err)
	}
	if err := f.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-trip close: %v", err)
	}
	if err := Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-trip rename: %v", err)
	}
	Clear()
	got, err := os.ReadFile(filepath.Join(dir, "a"))
	if err != nil || string(got) != "hel" {
		t.Fatalf("on-disk prefix %q, %v", got, err)
	}
}

func TestMetadataOpsCostOneUnit(t *testing.T) {
	dir := t.TempDir()
	// Budget covers the 5-byte write and the sync but not the rename:
	// the crash point lands between sync and rename.
	Inject(6)
	defer Clear()
	f, err := Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename should trip: %v", err)
	}
	Clear()
	if _, err := os.Stat(filepath.Join(dir, "b")); !os.IsNotExist(err) {
		t.Fatal("rename happened despite trip")
	}
	if _, err := os.Stat(filepath.Join(dir, "a")); err != nil {
		t.Fatal("temp file should survive the crash point")
	}
}

func TestFromEnv(t *testing.T) {
	const key = "FAULTFS_TEST_SPEC"
	t.Setenv(key, "budget=2")
	Clear()
	FromEnv(key)
	defer Clear()
	f, err := Create(filepath.Join(t.TempDir(), "a"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write([]byte("abc")); n != 2 || !errors.Is(err, ErrInjected) {
		t.Fatalf("n=%d err=%v, want 2, ErrInjected", n, err)
	}
}

func TestFromEnvUnsetIsNoop(t *testing.T) {
	const key = "FAULTFS_TEST_UNSET"
	os.Unsetenv(key)
	Clear()
	FromEnv(key)
	if active.Load() != nil {
		t.Fatal("hook installed from unset variable")
	}
}

// TestWriteFileAtomicSweep crashes WriteFileAtomic at every cost unit:
// each run either fails with the old file intact and no temp file left,
// or succeeds with the new content in place.
func TestWriteFileAtomicSweep(t *testing.T) {
	defer Clear()
	dir := t.TempDir()
	path := filepath.Join(dir, "sidecar")
	const old, fresh = "old\n", "fresh contents\n"
	write := func(w io.Writer) error {
		_, err := io.WriteString(w, fresh)
		return err
	}
	// Create + len(fresh) bytes + Sync + Close + Rename + SyncDir.
	total := int64(len(fresh)) + 4
	for budget := int64(0); budget <= total; budget++ {
		if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		Inject(budget)
		err := WriteFileAtomic(path, write)
		Clear()
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		switch {
		case err == nil && string(got) != fresh:
			t.Fatalf("budget %d: success left %q", budget, got)
		case err != nil && !errors.Is(err, ErrInjected):
			t.Fatalf("budget %d: unexpected error %v", budget, err)
		case err != nil && budget < total-1 && string(got) != old:
			// Only a fault at the final directory fsync may follow a
			// completed rename.
			t.Fatalf("budget %d: failed write clobbered the file: %q", budget, got)
		}
		if budget == total && err != nil {
			t.Fatalf("full budget %d still faulted: %v", budget, err)
		}
		entries, _ := os.ReadDir(dir)
		if len(entries) != 1 {
			t.Fatalf("budget %d: temp file left behind: %v", budget, entries)
		}
	}
}
