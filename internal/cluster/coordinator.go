package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repaircount"
	"repaircount/internal/repairs"
	"repaircount/internal/server"
	"repaircount/internal/workload"
)

// Config parameterizes a Coordinator. Zero values select the documented
// defaults.
type Config struct {
	// Config holds the serving daemon's settings, which behave exactly as
	// in internal/server: the coordinator serves through a server.Server.
	// SnapshotPath is the full snapshot the coordinator owns; CompactBytes
	// triggers a compaction and with it a full re-shard; CacheEntries < 0
	// also turns off the per-worker partial cache that lets an unchanged
	// shard skip its re-count on fan-out.
	server.Config
	// Query is the partition query (required): the one query whose counts
	// fan out to the fleet. Other probes are served locally.
	Query string
	// Peers are the worker base URLs; the shard count K is their number
	// (required, at least one).
	Peers []string
	// ShardDir receives one epoch-N directory of shard snapshots plus
	// manifest per re-shard (required).
	ShardDir string
	// Retries is the attempt count per shard fetch (default 3).
	Retries int
	// RetryBackoff is the initial inter-attempt backoff, doubling each
	// retry (default 50ms).
	RetryBackoff time.Duration
	// HedgeAfter is the per-attempt timeout: a slow attempt is abandoned
	// and re-fired after this long (default 2s). This is
	// abandon-and-refire hedging — the slow request is canceled, not
	// raced.
	HedgeAfter time.Duration
}

func (cfg *Config) fill() {
	cfg.Config.Fill()
	if cfg.Retries <= 0 {
		cfg.Retries = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.HedgeAfter <= 0 {
		cfg.HedgeAfter = 2 * time.Second
	}
}

// workerState is the coordinator's book on one fleet member. Guarded by
// Coordinator.fmu.
type workerState struct {
	url string
	// down: the worker failed an availability check (refused, timed out);
	// probes fall back to local counting, the maintenance loop re-pings.
	down bool
	// stale: the worker returned an integrity violation (wrong digest,
	// epoch or applied stamp); it needs a reload before it is trusted
	// again.
	stale bool
	// lastAck is the instance version the worker acknowledged after its
	// last delta batch (or reload); a partial must carry exactly this.
	lastAck uint64
	// pending holds routed-but-unacked ops, in stream order.
	pending []workload.Update
}

// Coordinator owns the full snapshot, the manifest of the current epoch
// and the ops tail, and serves the probe API through its embedded
// server.Server, for which it is the count backend: the partition query
// fans out to the worker fleet. The server's substrate lock orders
// everything: probes run under its read side, while the ops applier and
// the re-sharder run under its write side, so in-flight probes drain
// before any epoch swing.
type Coordinator struct {
	*server.Server
	cfg    Config
	client *http.Client

	query repaircount.Formula
	qs    string // canonical partition-query text

	// snap is the server's snapshot, handed over by Reshard under the
	// server's write lock and read by probes under its read lock.
	snap *repaircount.Snapshot

	// fmu guards the fleet book and the shard-set identity. The epoch and
	// shard set only move under the server's write lock AND fmu, so
	// holders of either read a consistent epoch.
	fmu      sync.Mutex
	epoch    uint64
	shards   *repaircount.ShardSet
	plac     map[string]int32 // block key → worker, shardShared or shardExcluded
	fleet    []*workerState
	pcounter *repaircount.Counter // dedicated planning counter; rebuilt per epoch
	fan      *fanPlan             // cached validation for (epoch, version)
	parts    []partialMemo        // per-worker verified-partial cache, keyed (epoch, ack)

	stats struct {
		fanouts, localFallback, integrity, reshards, partialHits atomic.Int64
	}

	flushCh   chan struct{}
	stop      chan struct{}
	stopOnce  sync.Once
	flushDone chan struct{}
	maintDone chan struct{}
}

const (
	shardShared   = repairs.ShardShared
	shardExcluded = repairs.ShardExcluded
)

// New recovers and maps the snapshot, cuts the first epoch's shard set,
// assigns the fleet (workers that are down are marked and healed later —
// probes degrade to local counting, they never fail), and starts the ops
// tail, the delta flusher and the maintenance loop.
func New(cfg Config) (*Coordinator, error) {
	cfg.fill()
	if cfg.SnapshotPath == "" || cfg.Query == "" || cfg.ShardDir == "" {
		return nil, fmt.Errorf("cluster: SnapshotPath, Query and ShardDir are required")
	}
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: at least one worker peer is required")
	}
	q, err := repaircount.ParseQuery(cfg.Query)
	if err != nil {
		return nil, fmt.Errorf("cluster: partition query: %w", err)
	}
	c := &Coordinator{
		cfg:       cfg,
		client:    &http.Client{},
		query:     q,
		qs:        fmt.Sprintf("%s", q),
		fleet:     make([]*workerState, len(cfg.Peers)),
		parts:     make([]partialMemo, len(cfg.Peers)),
		flushCh:   make(chan struct{}, 1),
		stop:      make(chan struct{}),
		flushDone: make(chan struct{}),
		maintDone: make(chan struct{}),
	}
	for i, u := range cfg.Peers {
		c.fleet[i] = &workerState{url: u}
	}
	if c.Server, err = server.NewWithBackend(cfg.Config, c); err != nil {
		return nil, err
	}
	go c.flushLoop()
	go c.maintainLoop()
	return c, nil
}

// Close stops the flusher and maintenance loops, then the server's ops
// tail, and unmaps the snapshot. In-flight probes must have drained
// first. Safe to call twice.
func (c *Coordinator) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.flushDone
	<-c.maintDone
	return c.Server.Close()
}

// Reshard is the server's re-shard hook (server.Backend): cut epoch over
// snap, which the server has just compacted. It re-plans the partition
// at the current version, writes fresh shard snapshots plus manifest
// under ShardDir/epoch-N/, swings the fleet book (placement, acks,
// pending) to the new epoch, and reloads every worker. The server holds
// its write lock, so in-flight probes have drained against the old
// epoch. Worker reload failures mark the worker down — they never fail
// the re-shard, because the coordinator can always count locally.
func (c *Coordinator) Reshard(snap *repaircount.Snapshot, epoch uint64) error {
	c.snap = snap
	counter, err := c.snap.Counter(c.query)
	if err != nil {
		return err
	}
	plan, err := counter.PlanShards(len(c.fleet))
	if err != nil {
		return err
	}
	dir := filepath.Join(c.cfg.ShardDir, fmt.Sprintf("epoch-%06d", epoch))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	set, err := counter.WriteShards(dir, plan, c.snap.Digest())
	if err != nil {
		return fmt.Errorf("cluster: writing shard set for epoch %d: %w", epoch, err)
	}
	plac := make(map[string]int32, len(counter.Instance().Blocks))
	for pos, b := range counter.Instance().Blocks {
		plac[b.Key.Canonical()] = plan.ShardOf[pos]
	}

	c.fmu.Lock()
	c.epoch = epoch
	c.shards = set
	c.plac = plac
	c.pcounter = counter
	c.fan = nil
	for i := range c.parts {
		c.parts[i] = partialMemo{}
	}
	for _, ws := range c.fleet {
		ws.lastAck = 0
		ws.pending = nil
		ws.stale = false
	}
	c.fmu.Unlock()
	c.stats.reshards.Add(1)

	// Fan the reloads concurrently; the epoch swing above already
	// happened, so a worker that misses its reload is simply down until
	// the maintenance loop heals it.
	var wg sync.WaitGroup
	for s := range c.fleet {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			applied, err := c.sendReload(s)
			c.fmu.Lock()
			ws := c.fleet[s]
			if err != nil {
				ws.down = true
			} else {
				ws.down = false
				ws.lastAck = applied
			}
			c.fmu.Unlock()
			if err != nil {
				fmt.Fprintf(os.Stderr, "cluster: reload of worker %d (%s) failed: %v\n", s, c.fleet[s].url, err)
			}
		}(s)
	}
	wg.Wait()
	return nil
}

// sendReload assigns shard s of the current epoch to worker s and
// returns the applied version the worker acknowledged.
func (c *Coordinator) sendReload(s int) (uint64, error) {
	c.fmu.Lock()
	req := reloadRequest{
		Epoch:        c.epoch,
		Shard:        s,
		K:            len(c.fleet),
		ManifestPath: c.shards.ManifestPath,
		ShardPath:    c.shards.Paths[s],
		ManifestCRC:  fmt.Sprintf("%016x", c.shards.ManifestCRC),
	}
	url := c.fleet[s].url
	c.fmu.Unlock()
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HedgeAfter)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/reload", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if !statusOK(resp.StatusCode) {
		return 0, decodeError(resp.StatusCode, data)
	}
	var rr reloadResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return 0, fmt.Errorf("cluster: malformed reload ack: %w", err)
	}
	if rr.Epoch != req.Epoch || rr.Shard != s {
		return 0, fmt.Errorf("cluster: worker %d acked epoch %d shard %d, assigned epoch %d shard %d",
			s, rr.Epoch, rr.Shard, req.Epoch, s)
	}
	return rr.Applied, nil
}

// maintainLoop periodically heals down and stale workers: reload them
// onto the current epoch and kick the flusher so their pending deltas
// replay. Healthy fleets cost one mutex peek per tick.
func (c *Coordinator) maintainLoop() {
	defer close(c.maintDone)
	tick := time.NewTicker(c.cfg.Poll)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		c.fmu.Lock()
		var heal []int
		for s, ws := range c.fleet {
			if ws.down || ws.stale {
				heal = append(heal, s)
			}
		}
		c.fmu.Unlock()
		for _, s := range heal {
			applied, err := c.sendReload(s)
			if err != nil {
				continue // still down; next tick retries
			}
			c.fmu.Lock()
			ws := c.fleet[s]
			ws.lastAck = applied
			ws.down = false
			ws.stale = false
			c.fmu.Unlock()
		}
		if len(heal) > 0 {
			c.kickFlusher()
		}
	}
}

func (c *Coordinator) kickFlusher() {
	select {
	case c.flushCh <- struct{}{}:
	default:
	}
}
