package server

import (
	"context"

	"repaircount"
	"repaircount/internal/workload"
)

// Backend is what a serving topology adds to the single-node probe
// pipeline. The shard-fleet coordinator (internal/cluster) is the one
// implementation: it prices and runs the exact rung of its partition
// query over the fleet, and follows the write path to keep the fleet in
// step. Everything else — slot, deadline, cache entry, admission, the
// local exact, FPRAS and refusal rungs, rendering, the ops tail,
// journaling and compaction — is the Server's, so both daemons answer
// every probe through the same code.
type Backend interface {
	// Reshard adopts snap as the substrate of epoch: once at startup
	// (epoch 1, over a compacted snapshot) and after every compaction,
	// under the write lock, so no probe runs while the epoch swings.
	Reshard(snap *repaircount.Snapshot, epoch uint64) error
	// Stream receives the ops of one tail batch that changed the
	// instance, after they were journaled, under the write lock.
	Stream(changed []workload.Update)
	// Route is consulted by every /v1/count probe under the read lock.
	// It returns nil when the backend never serves qs, which makes the
	// probe a plain local count.
	Route(qs string) *Route
	// LocalCount annotates the response of a count served by the local
	// exact rung; rt is the probe's route (nil when it had none).
	LocalCount(rt *Route, resp map[string]any)
	// Explain adds the backend's keys to a /v1/explain response.
	Explain(qs string, resp map[string]any)
	// Stats adds the backend's keys to the /v1/stats response.
	Stats(resp map[string]any)
}

// Route is a backend's plan for the exact rung of one count probe.
type Route struct {
	// Cost is the exact work on the backend's critical path; the exact
	// rung is admitted against it instead of the local plan.
	Cost int64
	// Run counts remotely, returning the rendered count and the keys it
	// adds to the response. An error that is a *StatusError is answered
	// as is; any other error (unless the probe's context ended) falls
	// back to the local exact rung with the error as the reason. Run is
	// nil when the backend cannot serve the probe right now.
	Run func(ctx context.Context, ent *CacheEntry, version uint64) (string, map[string]any, error)
	// Reason says why the probe is served locally, when it is.
	Reason string
}

// StatusError is a probe failure a backend answers with its own status
// and structured body — the coordinator's 502 on a partial that must not
// be merged.
type StatusError struct {
	Status int
	APIError
}

func (e *StatusError) Error() string { return e.Message }
