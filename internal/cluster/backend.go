package cluster

import (
	"context"
	"fmt"

	"repaircount"
	"repaircount/internal/server"
)

// The coordinator is the count backend of its server.Server (see
// server.Backend): every endpoint, the admission ladder, the cache and
// the structured errors are the single-node daemon's, with one
// difference. A /v1/count probe for the partition query fans out to the
// worker fleet when the fan-out is sound, and its exact rung is admitted
// on the FLEET CRITICAL PATH (the max over workers of their components'
// summed planned cost) instead of the local plan total, because shards
// count in parallel. Every other query, and every probe the fleet cannot
// soundly serve, runs on the coordinator's own snapshot — the cluster
// never answers worse than a single node.

// isPartitionQuery reports whether a probe's query is the fleet's
// partition query, by canonical rendering.
func (c *Coordinator) isPartitionQuery(qs string) bool {
	if qs == c.cfg.Query || qs == c.qs {
		return true
	}
	q, err := repaircount.ParseQuery(qs)
	if err != nil {
		return false
	}
	return fmt.Sprintf("%s", q) == c.qs
}

// Route routes the partition query to the fleet: with a sound fan plan
// and a synced, healthy fleet its exact rung is the fan-out, priced on
// the fleet critical path; otherwise the route carries the reason it is
// counted locally. Other queries are not routed.
func (c *Coordinator) Route(qs string) *server.Route {
	if !c.isPartitionQuery(qs) {
		return nil
	}
	fp := c.currentFanPlan()
	if !fp.ok {
		return &server.Route{Reason: fp.reason}
	}
	fv, reason := c.fleetReady()
	if reason != "" {
		return &server.Route{Reason: reason}
	}
	return &server.Route{Cost: fp.maxCost, Run: func(ctx context.Context, ent *server.CacheEntry, version uint64) (string, map[string]any, error) {
		str, err := c.fanOut(ctx, fv, fp.effOuter, ent, version)
		if err != nil {
			return "", nil, err
		}
		c.stats.fanouts.Add(1)
		return str, map[string]any{"engine": "fanout", "k": len(c.fleet)}, nil
	}}
}

// LocalCount labels a count the coordinator served from its own
// snapshot. A routed probe that wanted the fleet and was served locally
// is a local fallback and names its reason.
func (c *Coordinator) LocalCount(rt *server.Route, resp map[string]any) {
	resp["engine"] = "local"
	if rt != nil {
		c.stats.localFallback.Add(1)
		resp["fallback_reason"] = rt.Reason
	}
}

// Explain reports whether a count of qs would fan out right now and, for
// the partition query, the fleet critical-path cost its exact rung would
// be priced at.
func (c *Coordinator) Explain(qs string, resp map[string]any) {
	if !c.isPartitionQuery(qs) {
		resp["fanout"] = false
		return
	}
	fp := c.currentFanPlan()
	_, notReady := c.fleetReady()
	resp["fanout"] = fp.ok && notReady == ""
	switch {
	case !fp.ok:
		resp["fanout_reason"] = fp.reason
	case notReady != "":
		resp["fanout_reason"] = notReady
	}
	if fp.ok {
		resp["fleet_cost"] = fp.maxCost
	}
}

// Stats adds the fleet book and the fan-out counters to /v1/stats.
func (c *Coordinator) Stats(resp map[string]any) {
	c.fmu.Lock()
	workers := make([]map[string]any, len(c.fleet))
	for s, ws := range c.fleet {
		workers[s] = map[string]any{
			"url": ws.url, "down": ws.down, "stale": ws.stale,
			"last_ack": ws.lastAck, "pending": len(ws.pending),
		}
	}
	resp["manifest"] = fmt.Sprintf("%016x", c.shards.ManifestCRC)
	c.fmu.Unlock()
	resp["k"] = len(c.fleet)
	resp["workers"] = workers
	resp["fanout_probes"] = c.stats.fanouts.Load()
	resp["local_fallback"] = c.stats.localFallback.Load()
	resp["integrity_errors"] = c.stats.integrity.Load()
	resp["reshards"] = c.stats.reshards.Load()
	resp["partial_hits"] = c.stats.partialHits.Load()
}
