package server

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repaircount"
	"repaircount/internal/faultfs"
	"repaircount/internal/workload"
)

// The tailer is the daemon's only write path. It polls the ops file for
// new complete lines ("+ Fact" / "- Fact", # comments), applies them
// through the server's applyBatch (which takes the write lock, patches
// the live instance, journals the changed ops with an fsync'd append,
// hands them to the backend and compacts when due), and then — only
// after the batch is durably applied — persists the consumed byte offset
// to the OpsPath + ".offset" sidecar so a restart resumes the tail
// instead of re-applying the whole stream.
//
// Crash safety is a consequence of layering plus ordering, not tailer
// bookkeeping: the ops file is the source of truth, and the sidecar is
// written strictly after the journal append it covers, so the persisted
// offset never runs ahead of journaled state. After any crash —
// including kill -9 between apply and journal, or between journal and
// sidecar — the restarted daemon recovers the snapshot's torn tail and
// re-tails from the last persisted offset (or zero when the sidecar is
// missing, corrupt, or past the ops file's end): ops are absolute
// set-membership assignments, so replaying an already-journaled suffix
// is a no-op that journals nothing, and the daemon converges to exactly
// the committed-plus-pending state.
//
// Any write-path failure (unparseable ops line, failed apply, failed
// journal append, compaction or re-shard) stops the tail and degrades
// the daemon to read-only: probes keep answering against the last
// applied state, /healthz fails, and the reason is reported in
// /v1/stats.

// offsetMagic prefixes the sidecar's single line: "CQSO1 <offset>\n".
const offsetMagic = "CQSO1"

// tailer follows an append-only update-stream file and hands parsed
// batches to apply.
type tailer struct {
	opsPath string
	poll    time.Duration
	// apply durably applies one parsed batch; an error stops the tail.
	apply func(ops []workload.Update) error

	off atomic.Int64
}

// Offset returns the consumed byte offset of the ops file.
func (t *tailer) Offset() int64 { return t.off.Load() }

// Run tails until stop closes or apply fails, returning the failure (nil
// on a clean stop). The starting offset is loaded from the sidecar.
func (t *tailer) Run(stop <-chan struct{}) error {
	t.off.Store(t.loadOffset())
	tick := time.NewTicker(t.poll)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
		if err := t.tailOnce(); err != nil {
			return err
		}
	}
}

// tailOnce reads any new complete lines past the current offset, applies
// them, and persists the advanced offset.
func (t *tailer) tailOnce() error {
	off := t.off.Load()
	f, err := os.Open(t.opsPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // the stream has not started yet
		}
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < off {
		return fmt.Errorf("server: ops file %s shrank from %d to %d bytes", t.opsPath, off, st.Size())
	}
	if st.Size() == off {
		return nil
	}
	buf := make([]byte, st.Size()-off)
	if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
		return err
	}
	// Only complete lines are parsed; a partially written tail waits for
	// the next poll.
	nl := bytes.LastIndexByte(buf, '\n')
	if nl < 0 {
		return nil
	}
	ops, err := workload.ParseUpdates(bytes.NewReader(buf[:nl+1]))
	if err != nil {
		return fmt.Errorf("server: ops file %s at offset %d: %w", t.opsPath, off, err)
	}
	if len(ops) > 0 {
		if err := t.apply(ops); err != nil {
			return err
		}
	}
	t.off.Store(off + int64(nl+1))
	// The batch is applied and journaled; only now may the sidecar
	// advance. A sidecar failure is not a correctness failure (restart
	// replays idempotently from the stale offset) but it is a broken
	// durability invariant worth refusing to hide.
	if err := t.persistOffset(); err != nil {
		return fmt.Errorf("server: persisting ops offset: %w", err)
	}
	return nil
}

// offsetPath is the sidecar persisting the consumed byte offset.
func (t *tailer) offsetPath() string { return t.opsPath + ".offset" }

// loadOffset reads the sidecar, falling back to zero — the replay-all
// behavior — when it is absent, corrupt, or names an offset past the
// current end of the ops file (a replaced stream).
func (t *tailer) loadOffset() int64 {
	data, err := os.ReadFile(t.offsetPath())
	if err != nil {
		return 0
	}
	var magic string
	var off int64
	if _, err := fmt.Sscanf(strings.TrimSuffix(string(data), "\n"), "%s %d", &magic, &off); err != nil || magic != offsetMagic || off < 0 {
		return 0
	}
	if st, err := os.Stat(t.opsPath); err != nil || st.Size() < off {
		return 0
	}
	return off
}

// persistOffset durably writes the sidecar through faultfs, so the crash
// sweeps cover every byte of this path too.
func (t *tailer) persistOffset() error {
	return faultfs.WriteFileAtomic(t.offsetPath(), func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%s %d\n", offsetMagic, t.off.Load())
		return err
	})
}

// tailLoop runs the server's tailer until Close or a write-path failure.
func (s *Server) tailLoop() {
	defer close(s.tailDone)
	if err := s.tailer.Run(s.stop); err != nil {
		s.degrade(err)
	}
}

// applyBatch applies one parsed batch under the write lock, journals the
// ops that changed the instance, hands them to the backend, and compacts
// (re-sharding the backend onto the new epoch) when the journal
// outgrows CompactBytes.
func (s *Server) applyBatch(ops []workload.Update) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed, err := ApplyOps(s.snap, s.cfg.SnapshotPath, ops)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.appliedOps.Add(int64(len(ops)))
	s.journaled.Add(int64(len(changed)))
	if s.backend != nil && len(changed) > 0 {
		s.backend.Stream(changed)
	}
	if s.cfg.CompactBytes > 0 {
		// The mapped length is fixed at open, so the live journal size
		// comes from the file, not the snapshot.
		st, err := os.Stat(s.cfg.SnapshotPath)
		if err == nil && st.Size()-s.baseLen >= s.cfg.CompactBytes {
			if err := s.compactLocked(); err != nil {
				return fmt.Errorf("server: compacting: %w", err)
			}
			if s.backend != nil {
				if err := s.backend.Reshard(s.snap, s.epoch); err != nil {
					return fmt.Errorf("server: re-sharding: %w", err)
				}
			}
		}
	}
	return nil
}

// ApplyOps applies one update batch through the snapshot's live instance
// and journals the ops that changed it with an fsync'd append to the
// snapshot file at path, returning those ops. The daemons' ops tail and
// the shard worker's /v1/apply both run through here; the caller holds
// the snapshot's write lock and degrades on an error, since the batch
// may then be applied in memory but not journaled.
func ApplyOps(snap *repaircount.Snapshot, path string, ops []workload.Update) ([]workload.Update, error) {
	var changed []workload.Update
	var deltas []repaircount.Delta
	for _, op := range ops {
		d := repaircount.Insert(op.Fact)
		if op.Del {
			d = repaircount.Delete(op.Fact)
		}
		n, err := snap.Apply(d)
		if err != nil {
			return nil, fmt.Errorf("applying %s: %w", op.Fact, err)
		}
		if n > 0 {
			changed = append(changed, op)
			deltas = append(deltas, d)
		}
	}
	if len(deltas) > 0 {
		if err := repaircount.AppendJournal(path, deltas...); err != nil {
			return nil, fmt.Errorf("journaling %d ops: %w", len(deltas), err)
		}
	}
	return changed, nil
}

// compactLocked rewrites the snapshot without its journal (atomic
// temp+rename), remaps it, and bumps the epoch so worker caches rebuild
// over the new substrate. Caller holds the write lock.
func (s *Server) compactLocked() error {
	if err := repaircount.CompactSnapshot(s.cfg.SnapshotPath, s.cfg.SnapshotPath); err != nil {
		return err
	}
	snap, err := repaircount.OpenSnapshot(s.cfg.SnapshotPath)
	if err != nil {
		return err
	}
	st, err := os.Stat(s.cfg.SnapshotPath)
	if err != nil {
		snap.Close()
		return err
	}
	old := s.snap
	s.snap = snap
	s.baseLen = st.Size() - snap.JournalBytes()
	s.epoch++
	return old.Close()
}
