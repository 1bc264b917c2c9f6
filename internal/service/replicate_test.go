package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/devsim"
	"repro/internal/storage"
)

// newMemServer builds a server over a memory-backed registry — the
// replica configuration, and cheap enough to use for upstreams too.
func newMemServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	reg, err := NewRegistry(storage.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	return newTestServer(t, reg, 1, 4, opts...)
}

// TestServeRoleReadOnly pins the plane split: a serve replica answers
// 405 with the machine-readable kind "read_only" on every mutating
// endpoint, while reads and the operational endpoints keep working.
func TestServeRoleReadOnly(t *testing.T) {
	srv := newMemServer(t, WithRole(RoleServe))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())
	client := ts.Client()

	mutating := []struct{ method, path, body string }{
		{http.MethodPost, "/v1/jobs", `{"benchmark":"convolution","device":"` + devsim.IntelI7 + `"}`},
		{http.MethodDelete, "/v1/jobs/some-id", ""},
		{http.MethodPost, "/v1/samples", `{"benchmark":"convolution","device":"` + devsim.IntelI7 + `","samples":[]}`},
		{http.MethodPost, "/v1/train", `{"benchmark":"convolution","device":"` + devsim.IntelI7 + `"}`},
	}
	for _, m := range mutating {
		req, err := http.NewRequest(m.method, ts.URL+m.path, strings.NewReader(m.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var apiErr Error
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Fatalf("%s %s: %v", m.method, m.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", m.method, m.path, resp.StatusCode)
		}
		if apiErr.Kind != errKindReadOnly || apiErr.Retryable {
			t.Errorf("%s %s: error %+v, want kind %q non-retryable", m.method, m.path, apiErr, errKindReadOnly)
		}
	}

	// Reads and operations stay up: listing, stats, reload, health.
	jget(t, client, ts.URL, "/v1/models", http.StatusOK, nil)
	jget(t, client, ts.URL, "/v1/samples", http.StatusOK, nil)
	jget(t, client, ts.URL, "/healthz", http.StatusOK, nil)
	var stats StatsResponse
	jget(t, client, ts.URL, "/v1/stats", http.StatusOK, &stats)
	if stats.Role != RoleServe {
		t.Errorf("stats role %q, want %q", stats.Role, RoleServe)
	}
	if stats.Storage.Models != "memory" || stats.Storage.Samples != "memory" {
		t.Errorf("stats storage %+v, want memory/memory", stats.Storage)
	}
	resp, err := client.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST /v1/reload on a replica: status %d, want 200 (reload is a local rescan, not a write)", resp.StatusCode)
	}
}

// TestUpstreamRequiresServeRole pins the misconfiguration guard: a
// train-capable plane pulling from an upstream would have two writers
// per registry slot.
func TestUpstreamRequiresServeRole(t *testing.T) {
	reg, err := NewRegistry(storage.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(reg, 1, 4, WithUpstream("http://localhost:1", 0)); err == nil {
		t.Fatal("New accepted an upstream without RoleServe")
	}
}

// TestModelsSinceDelta pins the delta protocol: ?since= returns only
// the slots whose generation moved, and the response's generation is a
// safe cursor.
func TestModelsSinceDelta(t *testing.T) {
	srv := newMemServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())
	client := ts.Client()

	model := trainTinyModel(t, 21)
	keyA := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	keyB := ModelKey{Benchmark: "convolution", Device: PortableDevice}
	if err := srv.reg.Put(keyA, model); err != nil {
		t.Fatal(err)
	}

	var full struct {
		Role       Role        `json:"role"`
		Storage    string      `json:"storage"`
		Generation uint64      `json:"generation"`
		Models     []ModelInfo `json:"models"`
	}
	jget(t, client, ts.URL, "/v1/models", http.StatusOK, &full)
	if full.Role != RoleAll || full.Storage != "memory" {
		t.Errorf("listing role/storage = %q/%q", full.Role, full.Storage)
	}
	if len(full.Models) != 1 || full.Generation == 0 || full.Models[0].Generation != full.Generation {
		t.Fatalf("full listing %+v", full)
	}
	cursor := full.Generation

	// Caught up: the delta past the cursor is empty, same generation.
	var delta modelsDelta
	jget(t, client, ts.URL, fmt.Sprintf("/v1/models?since=%d", cursor), http.StatusOK, &delta)
	if len(delta.Models) != 0 || delta.Generation != cursor {
		t.Fatalf("caught-up delta %+v (cursor %d)", delta, cursor)
	}

	// One new model: the delta holds exactly it.
	if err := srv.reg.Put(keyB, trainTinyModel(t, 22)); err != nil {
		t.Fatal(err)
	}
	jget(t, client, ts.URL, fmt.Sprintf("/v1/models?since=%d", cursor), http.StatusOK, &delta)
	if len(delta.Models) != 1 || delta.Models[0].Device != PortableDevice {
		t.Fatalf("delta after one Put: %+v", delta)
	}
	if delta.Generation <= cursor {
		t.Fatalf("generation did not advance: %d after %d", delta.Generation, cursor)
	}

	jget(t, client, ts.URL, "/v1/models?since=bogus", http.StatusBadRequest, nil)
}

// TestReplicationPullsModels is the replication round-trip: a serve
// replica starts empty and not ready, pulls the upstream's models on
// the first sync, serves predictions from them, becomes ready, and
// picks up a retrained model on a later sync — all visible in stats.
func TestReplicationPullsModels(t *testing.T) {
	up := newMemServer(t)
	upstream := httptest.NewServer(up)
	defer upstream.Close()
	defer up.Drain(context.Background())

	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	if err := up.reg.Put(key, trainTinyModel(t, 31)); err != nil {
		t.Fatal(err)
	}

	replica := newMemServer(t, WithRole(RoleServe), WithUpstream(upstream.URL, time.Hour))
	rts := httptest.NewServer(replica)
	defer rts.Close()
	defer replica.Drain(context.Background())
	client := rts.Client()

	// Before the first sync: alive but not ready, no models.
	jget(t, client, rts.URL, "/healthz", http.StatusOK, nil)
	var ready Readiness
	jget(t, client, rts.URL, "/readyz", http.StatusServiceUnavailable, &ready)
	if ready.Ready || !strings.Contains(ready.Reason, "sync") {
		t.Errorf("pre-sync readiness %+v", ready)
	}

	if err := replica.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	jget(t, client, rts.URL, "/readyz", http.StatusOK, &ready)
	if !ready.Ready {
		t.Errorf("post-sync readiness %+v", ready)
	}

	// The replica serves the pulled model, resolved exactly.
	var pred struct {
		Resolution string  `json:"resolution"`
		Seconds    float64 `json:"seconds"`
	}
	predictPath := "/v1/predict?benchmark=convolution&device=" + devQ + "&index=0"
	jget(t, client, rts.URL, predictPath, http.StatusOK, &pred)
	if pred.Resolution != resolutionExact || pred.Seconds <= 0 {
		t.Errorf("replica prediction %+v", pred)
	}

	var stats StatsResponse
	jget(t, client, rts.URL, "/v1/stats", http.StatusOK, &stats)
	r := stats.Replication
	if r == nil {
		t.Fatal("replica stats carry no replication block")
	}
	if !r.Synced || r.Syncs != 1 || r.ModelsInstalled != 1 || r.SyncErrors != 0 {
		t.Errorf("replication status %+v", r)
	}
	if r.Generation == 0 || r.Generation != r.UpstreamGeneration {
		t.Errorf("caught-up replica generations %d/%d", r.Generation, r.UpstreamGeneration)
	}
	if stats.Generation == 0 {
		t.Error("replica registry generation is zero after a sync")
	}

	// A retrain upstream: the next sync installs the new model and the
	// cursor advances; an idle sync after that installs nothing.
	if err := up.reg.Put(key, trainTinyModel(t, 32)); err != nil {
		t.Fatal(err)
	}
	prevGen := r.Generation
	for i := 0; i < 2; i++ {
		if err := replica.SyncNow(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	jget(t, client, rts.URL, "/v1/stats", http.StatusOK, &stats)
	r = stats.Replication
	if r.Syncs != 3 || r.ModelsInstalled != 2 {
		t.Errorf("after retrain + idle sync: %+v", r)
	}
	if r.Generation <= prevGen {
		t.Errorf("cursor did not advance past the retrain: %d after %d", r.Generation, prevGen)
	}
	jget(t, client, rts.URL, predictPath, http.StatusOK, &pred)
	if pred.Resolution != resolutionExact {
		t.Errorf("post-rollout prediction %+v", pred)
	}

	// The replication metric families exist on the replica.
	resp, err := client.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"mltuned_replication_syncs_total", "mltuned_replication_generation", "mltuned_replication_last_success_timestamp_seconds"} {
		if !strings.Contains(string(body), fam) {
			t.Errorf("replica /metrics missing %s", fam)
		}
	}
}

// TestReplicationFailedFetchKeepsCursor pins the retry contract: a
// round that cannot install everything it saw must not advance the
// cursor, so the failed artifact is refetched next round.
func TestReplicationFailedFetchKeepsCursor(t *testing.T) {
	up := newMemServer(t)
	upstream := httptest.NewServer(up)
	defer upstream.Close()
	defer up.Drain(context.Background())
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	if err := up.reg.Put(key, trainTinyModel(t, 41)); err != nil {
		t.Fatal(err)
	}

	// A proxy that corrupts artifact fetches while passing polls through.
	var breakFetches atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if breakFetches.Load() && strings.HasPrefix(r.URL.Path, "/v1/models/") {
			w.Write([]byte("not a model artifact"))
			return
		}
		resp, err := http.Get(upstream.URL + r.URL.RequestURI())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer proxy.Close()

	replica := newMemServer(t, WithRole(RoleServe), WithUpstream(proxy.URL, time.Hour))
	defer replica.Drain(context.Background())

	breakFetches.Store(true)
	if err := replica.SyncNow(context.Background()); err == nil {
		t.Fatal("sync succeeded on a corrupt artifact")
	}
	st := replica.repl.status()
	if st.Synced || st.Generation != 0 || st.SyncErrors != 1 || st.LastError == "" {
		t.Errorf("after failed sync: %+v", st)
	}
	if replica.reg.Len() != 0 {
		t.Errorf("corrupt artifact reached the registry (%d models)", replica.reg.Len())
	}

	breakFetches.Store(false)
	if err := replica.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = replica.repl.status()
	if !st.Synced || st.ModelsInstalled != 1 || st.LastError != "" {
		t.Errorf("after recovery sync: %+v", st)
	}
	if _, err := replica.reg.Get(key); err != nil {
		t.Errorf("recovered replica cannot serve the model: %v", err)
	}
}

// TestReplicationSyncVsReadsRace is the no-torn-model hammer (run under
// -race): one goroutine keeps retraining the upstream's model, one
// keeps syncing the replica, and readers hammer predict/top-M on the
// replica throughout. Every read must see a complete model — 200s only
// — while the model underneath is swapped repeatedly.
func TestReplicationSyncVsReadsRace(t *testing.T) {
	up := newMemServer(t)
	upstream := httptest.NewServer(up)
	defer upstream.Close()
	defer up.Drain(context.Background())
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	modelA := trainTinyModel(t, 51)
	modelB := trainTinyModel(t, 52)
	if err := up.reg.Put(key, modelA); err != nil {
		t.Fatal(err)
	}

	replica := newMemServer(t, WithRole(RoleServe), WithUpstream(upstream.URL, time.Hour))
	rts := httptest.NewServer(replica)
	defer rts.Close()
	defer replica.Drain(context.Background())
	if err := replica.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}

	const rounds = 30
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: alternate two models on the upstream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			m := modelA
			if i%2 == 1 {
				m = modelB
			}
			if err := up.reg.Put(key, m); err != nil {
				t.Errorf("upstream put: %v", err)
				return
			}
		}
	}()
	// Syncer: pull continuously until the writer is done.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := replica.SyncNow(context.Background()); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
		}
	}()
	// Readers: predictions and top-M on the replica must never fail.
	client := rts.Client()
	paths := []string{
		"/v1/predict?benchmark=convolution&device=" + devQ + "&index=0",
		"/v1/topm?benchmark=convolution&device=" + devQ + "&m=3",
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(rts.URL + paths[(r+i)%len(paths)])
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader got %d mid-rollout", resp.StatusCode)
					resp.Body.Close()
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(r)
	}

	// Let the hammer run briefly, then stop everything.
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Converge: one final sync lands the writer's last model.
	if err := replica.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	upGen := up.reg.Generation()
	if got := replica.repl.status().Generation; got != upGen {
		t.Errorf("replica cursor %d, upstream generation %d", got, upGen)
	}
}
