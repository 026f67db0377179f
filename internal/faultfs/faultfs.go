// Package faultfs is a deterministic fault-injection shim over the small
// set of filesystem operations the snapshot write path performs. The store
// routes every durable write through it; with no hook installed each
// wrapper is a direct call into the os package.
//
// A hook carries a cost budget: every written byte costs one unit and
// every metadata operation (Sync, Close, Rename, SyncDir) costs one unit
// before it executes. The operation that exhausts the budget fails — a
// Write lands its affordable prefix first, modelling a torn write — and
// every later operation fails too (fail-stop), or the process exits
// immediately when the hook is in exit mode (modelling kill -9 mid-write).
// Sweeping the budget over 0..cost(workload) therefore enumerates every
// crash point of a write path, including the gaps between a data sync and
// the rename that commits it.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrInjected is the error every faulted operation returns.
var ErrInjected = errors.New("faultfs: injected fault")

// ExitCode is the status a hook in exit mode terminates the process with.
const ExitCode = 3

// Hook is one installed fault plan.
type Hook struct {
	mu      sync.Mutex
	budget  int64
	exit    bool
	tripped bool
}

var active atomic.Pointer[Hook]

// Inject installs a hook that trips after `budget` cost units (bytes
// written + metadata operations): the tripping operation and all later
// ones fail with ErrInjected. It replaces any installed hook.
func Inject(budget int64) *Hook {
	h := &Hook{budget: budget}
	active.Store(h)
	return h
}

// InjectExit installs a hook that exits the process (status ExitCode) at
// the operation that exhausts the budget — after a faulted Write has
// landed its affordable prefix, before a faulted metadata operation runs.
func InjectExit(budget int64) *Hook {
	h := &Hook{budget: budget, exit: true}
	active.Store(h)
	return h
}

// Clear uninstalls any hook; subsequent operations run natively.
func Clear() { active.Store(nil) }

// Tripped reports whether the hook's budget was exhausted.
func (h *Hook) Tripped() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tripped
}

// FromEnv installs a hook described by the environment variable `key`,
// for CLI crash tests that fault a subprocess: "budget=N" installs
// Inject(N), "budget=N,exit" installs InjectExit(N). An unset or empty
// variable is a no-op; a malformed one panics (a silently ignored fault
// plan would make a crash test vacuous).
func FromEnv(key string) {
	spec := os.Getenv(key)
	if spec == "" {
		return
	}
	exit := false
	if rest, ok := strings.CutSuffix(spec, ",exit"); ok {
		spec, exit = rest, true
	}
	val, ok := strings.CutPrefix(spec, "budget=")
	if !ok {
		panic(fmt.Sprintf("faultfs: malformed %s=%q (want budget=N[,exit])", key, spec))
	}
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil || n < 0 {
		panic(fmt.Sprintf("faultfs: malformed budget in %s=%q", key, spec))
	}
	if exit {
		InjectExit(n)
	} else {
		Inject(n)
	}
}

// spend charges up to `want` units and reports how many were granted.
// granted < want means the hook tripped on this operation; in exit mode
// the caller must perform the granted work and then call die.
func spend(want int64) (granted int64, trip bool, h *Hook) {
	h = active.Load()
	if h == nil {
		return want, false, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tripped {
		return 0, true, h
	}
	if h.budget >= want {
		h.budget -= want
		return want, false, h
	}
	granted = h.budget
	h.budget = 0
	h.tripped = true
	return granted, true, h
}

func (h *Hook) die() {
	if h.exit {
		os.Exit(ExitCode)
	}
}

// File wraps an os.File with byte-budgeted writes. Read-side methods are
// deliberately absent: faults model the durability path only.
type File struct {
	f *os.File
}

// Create opens a budgeted file for writing, truncating any existing one.
func Create(name string) (*File, error) {
	if _, trip, h := spend(0); trip {
		h.die()
		return nil, ErrInjected
	}
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return &File{f: f}, nil
}

// CreateTemp opens a budgeted temporary file in dir (os.CreateTemp
// naming).
func CreateTemp(dir, pattern string) (*File, error) {
	if _, trip, h := spend(0); trip {
		h.die()
		return nil, ErrInjected
	}
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &File{f: f}, nil
}

// OpenFile opens a budgeted file with the given flags.
func OpenFile(name string, flag int, perm os.FileMode) (*File, error) {
	if _, trip, h := spend(0); trip {
		h.die()
		return nil, ErrInjected
	}
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &File{f: f}, nil
}

// Name returns the underlying file's name.
func (w *File) Name() string { return w.f.Name() }

// Write writes p, charging one unit per byte. A tripping write lands its
// affordable prefix — a torn write — then fails (or exits the process).
func (w *File) Write(p []byte) (int, error) {
	granted, trip, h := spend(int64(len(p)))
	n, err := w.f.Write(p[:granted])
	if trip {
		h.die()
		if err == nil {
			err = ErrInjected
		}
	}
	return n, err
}

// WriteAt is Write at an offset.
func (w *File) WriteAt(p []byte, off int64) (int, error) {
	granted, trip, h := spend(int64(len(p)))
	n, err := w.f.WriteAt(p[:granted], off)
	if trip {
		h.die()
		if err == nil {
			err = ErrInjected
		}
	}
	return n, err
}

// Sync fsyncs the file; one unit. A tripping Sync exits (exit mode)
// or fails before syncing — the data may or may not be durable.
func (w *File) Sync() error {
	if _, trip, h := spend(1); trip {
		h.die()
		return ErrInjected
	}
	return w.f.Sync()
}

// Close closes the file; one unit. A tripping Close still releases the
// descriptor so sweeps don't leak, but reports the fault.
func (w *File) Close() error {
	if _, trip, h := spend(1); trip {
		h.die()
		w.f.Close()
		return ErrInjected
	}
	return w.f.Close()
}

// Rename renames a file; one unit, charged before the rename so a trip
// models a crash with the temp file still in place.
func Rename(oldpath, newpath string) error {
	if _, trip, h := spend(1); trip {
		h.die()
		return ErrInjected
	}
	return os.Rename(oldpath, newpath)
}

// SyncDir fsyncs a directory, making a completed rename durable; one
// unit, charged before the sync.
func SyncDir(dir string) error {
	if _, trip, h := spend(1); trip {
		h.die()
		return ErrInjected
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic durably replaces path with what write produces: a temp
// file beside it, fsync, atomic rename, directory fsync. A failure at any
// step removes the temp file and leaves the previous file intact. Every
// step is budgeted, so a crash sweep over any caller covers all of them.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return SyncDir(dir)
}
