package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// defaultSyncInterval paces the replication poll loop when the daemon's
// -sync-interval flag is unset.
const defaultSyncInterval = 5 * time.Second

// maxArtifactBytes bounds one pulled model artifact; registry models
// are tens of kilobytes, so anything near this is an upstream gone
// wrong, not a model.
const maxArtifactBytes = 64 << 20

// replicator is the serve plane's pull loop: it polls the train-plane
// upstream's GET /v1/models?since=<cursor> for model slots whose
// generation moved, fetches each changed artifact, and installs it
// through the registry's atomic slot swap — the exact path a local
// training job takes, so a replica's rollout has the same zero-downtime
// property: readers keep hitting the old slot until the swap, then the
// new one.
//
// The cursor only advances when a round installs everything it saw, so
// a partial failure is retried from the same position rather than
// silently skipping a model.
type replicator struct {
	upstream string // base URL of the train-plane daemon, no trailing slash
	interval time.Duration
	client   *http.Client
	s        *Server
	m        *replicationMetrics

	mu          sync.Mutex
	cursor      uint64 // upstream generation fully caught up to
	upstreamGen uint64 // upstream's high-water mark at the last poll
	syncs       uint64
	syncErrors  uint64
	installed   uint64
	lastSuccess time.Time
	lastErr     string
}

// newReplicator wires a replicator for server s against the upstream
// base URL. interval <= 0 uses the default.
func newReplicator(s *Server, upstream string, interval time.Duration) *replicator {
	if interval <= 0 {
		interval = defaultSyncInterval
	}
	return &replicator{
		upstream: strings.TrimRight(upstream, "/"),
		interval: interval,
		client:   &http.Client{Timeout: 30 * time.Second},
		s:        s,
		m:        newReplicationMetrics(s.metrics.reg),
	}
}

// modelsDelta is the subset of the upstream's GET /v1/models response
// the replicator consumes.
type modelsDelta struct {
	Generation uint64      `json:"generation"`
	Models     []ModelInfo `json:"models"`
}

// syncOnce runs one replication round: poll the delta, pull and install
// every changed artifact, then advance the cursor. A round that
// installs nothing (empty delta) still counts as a successful sync —
// it proved the replica is caught up.
func (rp *replicator) syncOnce(ctx context.Context) error {
	if err := rp.sync(ctx); err != nil {
		rp.mu.Lock()
		rp.syncErrors++
		rp.lastErr = err.Error()
		rp.mu.Unlock()
		rp.m.syncErrors.Inc()
		return err
	}
	return nil
}

func (rp *replicator) sync(ctx context.Context) error {
	rp.mu.Lock()
	since := rp.cursor
	rp.mu.Unlock()

	delta, err := rp.poll(ctx, since)
	if err != nil {
		return fmt.Errorf("service: replication poll: %w", err)
	}
	installed := 0
	for _, info := range delta.Models {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("service: replication: %w", err)
		}
		key := ModelKey{Benchmark: info.Benchmark, Device: info.Device}
		data, err := rp.fetch(ctx, info.File)
		if err != nil {
			return fmt.Errorf("service: replication fetch %s: %w", key, err)
		}
		// swapModel wraps the install with the same swap-duration
		// observation a local training job gets; the next read builds
		// serve state on the fresh slot while in-flight reads finish on
		// the old one.
		err = rp.s.swapModel(key, func() error {
			_, err := rp.s.reg.Install(key, data)
			return err
		})
		if err != nil {
			return fmt.Errorf("service: replication install %s: %w", key, err)
		}
		installed++
	}

	now := time.Now().UTC()
	rp.mu.Lock()
	// Advancing to the delta's high-water mark is safe only because the
	// upstream snapshots the slot set and the mark under one lock — a
	// model swapped in after the snapshot has a higher generation and
	// shows up in the next round.
	rp.cursor = delta.Generation
	rp.upstreamGen = delta.Generation
	rp.syncs++
	rp.installed += uint64(installed)
	rp.lastSuccess = now
	rp.lastErr = ""
	rp.mu.Unlock()

	rp.m.syncs.Inc()
	rp.m.installed.Add(installed)
	rp.m.generation.Set(int64(delta.Generation))
	rp.m.upstreamGen.Set(int64(delta.Generation))
	rp.m.lastSuccess.Set(now.Unix())
	return nil
}

// poll fetches the upstream's model delta past since. A sharded
// replica asks the upstream to filter server-side (?shard=i/n): only
// the keys this shard owns — plus the portable models every shard
// carries — come back, so a shard syncs and stores 1/n of the fleet's
// models instead of all of them.
func (rp *replicator) poll(ctx context.Context, since uint64) (*modelsDelta, error) {
	u := fmt.Sprintf("%s/v1/models?since=%d", rp.upstream, since)
	if s := rp.s; s.ring != nil {
		u += "&shard=" + FormatShard(s.ring.index, s.ring.ring.Shards())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := rp.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("upstream returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var delta modelsDelta
	if err := json.NewDecoder(resp.Body).Decode(&delta); err != nil {
		return nil, fmt.Errorf("decoding delta: %w", err)
	}
	return &delta, nil
}

// fetch pulls one artifact's raw bytes from the upstream. The file name
// is path-escaped: registry file names are query-escaped key parts and
// may contain '%'.
func (rp *replicator) fetch(ctx context.Context, file string) ([]byte, error) {
	u := rp.upstream + "/v1/models/" + url.PathEscape(file)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := rp.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("upstream returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxArtifactBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxArtifactBytes {
		return nil, fmt.Errorf("artifact exceeds the %d-byte limit", maxArtifactBytes)
	}
	return data, nil
}

// synced reports whether at least one sync round has succeeded — the
// replica's readiness gate: before the first sync it may hold no (or
// stale) models and must not take traffic.
func (rp *replicator) synced() bool {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return !rp.lastSuccess.IsZero()
}

// replicationStatus is the replication block of GET /v1/stats.
type replicationStatus struct {
	Upstream        string  `json:"upstream"`
	IntervalSeconds float64 `json:"interval_seconds"`
	// Synced is the readiness gate: true once a sync round succeeded.
	Synced bool `json:"synced"`
	// Generation is the cursor: the upstream generation the replica has
	// fully installed. UpstreamGeneration is the upstream's high-water
	// mark at the last poll; the difference is the lag in generations.
	Generation         uint64 `json:"generation"`
	UpstreamGeneration uint64 `json:"upstream_generation"`
	Syncs              uint64 `json:"syncs"`
	SyncErrors         uint64 `json:"sync_errors"`
	ModelsInstalled    uint64 `json:"models_installed"`
	// LastSuccessAgeSeconds is the time since the last successful sync
	// (absent before the first): the replica's staleness, the time
	// dimension of replication lag.
	LastSuccessAgeSeconds float64 `json:"last_success_age_seconds,omitempty"`
	LastError             string  `json:"last_error,omitempty"`
}

// status snapshots the replication state for GET /v1/stats.
func (rp *replicator) status() *replicationStatus {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	st := &replicationStatus{
		Upstream:           rp.upstream,
		IntervalSeconds:    rp.interval.Seconds(),
		Synced:             !rp.lastSuccess.IsZero(),
		Generation:         rp.cursor,
		UpstreamGeneration: rp.upstreamGen,
		Syncs:              rp.syncs,
		SyncErrors:         rp.syncErrors,
		ModelsInstalled:    rp.installed,
		LastError:          rp.lastErr,
	}
	if st.Synced {
		st.LastSuccessAgeSeconds = time.Since(rp.lastSuccess).Seconds()
	}
	return st
}

// SyncNow runs one replication round immediately (tests, operator
// tooling). It errors when the server has no upstream configured.
func (s *Server) SyncNow(ctx context.Context) error {
	if s.repl == nil {
		return fmt.Errorf("service: no -upstream configured")
	}
	return s.repl.syncOnce(ctx)
}

// Replicate runs the replication loop until ctx is canceled: one
// immediate round (so a fresh replica becomes ready as fast as the
// upstream answers, not an interval later), then one per interval. Run
// it in a goroutine; errors are counted and surfaced through stats and
// telemetry, and the loop keeps polling through them.
func (s *Server) Replicate(ctx context.Context) {
	if s.repl == nil {
		return
	}
	s.repl.syncOnce(ctx)
	t := time.NewTicker(s.repl.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.repl.syncOnce(ctx)
		}
	}
}
