package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/ann"
	"repro/internal/devsim"
)

// TestEngineOptionEndToEnd runs the read path under every registered
// engine and checks the serving contract: the engine in effect shows up
// in /v1/stats and /v1/models, predictions stay sane, and the top-M
// answer — set, order and exact seconds — is identical across engines,
// because every sweep screens through the int16 sweeper and the result
// heap holds float-reference scores.
func TestEngineOptionEndToEnd(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	if err := reg.Put(key, trainTinyModel(t, 41)); err != nil {
		t.Fatal(err)
	}

	type topResp struct {
		Top []struct {
			Index   int64   `json:"index"`
			Seconds float64 `json:"seconds"`
		} `json:"top"`
	}
	tops := make(map[string]topResp)

	for _, name := range ann.EngineNames() {
		t.Run(name, func(t *testing.T) {
			srv := newTestServer(t, reg, 1, 2, WithEngine(name))
			if srv.Engine() != name {
				t.Fatalf("Engine() = %q, want %q", srv.Engine(), name)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			client := ts.Client()

			var stats struct {
				Engine string `json:"engine"`
			}
			jget(t, client, ts.URL, "/v1/stats", http.StatusOK, &stats)
			if stats.Engine != name {
				t.Errorf("/v1/stats engine %q, want %q", stats.Engine, name)
			}

			var listing struct {
				Engine string `json:"engine"`
				Models []struct {
					Loaded       bool `json:"loaded"`
					WeightFormat int  `json:"weight_format"`
				} `json:"models"`
			}
			jget(t, client, ts.URL, "/v1/models", http.StatusOK, &listing)
			if listing.Engine != name {
				t.Errorf("/v1/models engine %q, want %q", listing.Engine, name)
			}
			if len(listing.Models) != 1 || !listing.Models[0].Loaded {
				t.Fatalf("listing %+v", listing.Models)
			}
			if wf := listing.Models[0].WeightFormat; wf < 1 {
				t.Errorf("loaded model reports weight_format %d, want >= 1", wf)
			}

			var single struct {
				Seconds float64 `json:"seconds"`
			}
			jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&device="+devQ+"&index=4242",
				http.StatusOK, &single)
			if single.Seconds <= 0 {
				t.Errorf("predict seconds %v under engine %s", single.Seconds, name)
			}

			var top topResp
			jget(t, client, ts.URL, "/v1/topm?benchmark=convolution&device="+devQ+"&m=8",
				http.StatusOK, &top)
			if len(top.Top) != 8 {
				t.Fatalf("top-M length %d", len(top.Top))
			}
			tops[name] = top
		})
	}

	ref := tops[ann.EngineFloat64]
	for name, top := range tops {
		for i := range ref.Top {
			if top.Top[i] != ref.Top[i] {
				t.Errorf("engine %s top-M differs from reference at %d: %+v vs %+v",
					name, i, top.Top[i], ref.Top[i])
			}
		}
	}
}

// TestUnknownEngineRejected pins construction-time validation: a typo'd
// -engine must fail server construction with an error naming the valid
// set, not fall back silently.
func TestUnknownEngineRejected(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(reg, 1, 2, WithEngine("float32"))
	if err == nil {
		t.Fatal("New accepted an unknown engine")
	}
	for _, n := range ann.EngineNames() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error %q does not name valid engine %q", err, n)
		}
	}
}

// TestTopMSeededAcrossPut checks the serve cache warm-starts top-M
// sweeps across a model swap: after Put replaces the model with an
// equivalent retrain, the next top-M query must be a cache miss (the
// entry was rebuilt) but a *seeded* sweep — counted in
// mltuned_topm_seeded_total — and its answer must match a cold sweep's.
func TestTopMSeededAcrossPut(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	if err := reg.Put(key, trainTinyModel(t, 51)); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, reg, 1, 2)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	type topResp struct {
		Top []struct {
			Index   int64   `json:"index"`
			Seconds float64 `json:"seconds"`
		} `json:"top"`
	}
	var first topResp
	jget(t, client, ts.URL, "/v1/topm?benchmark=convolution&device="+devQ+"&m=5", http.StatusOK, &first)
	if len(first.Top) != 5 {
		t.Fatalf("top-M length %d", len(first.Top))
	}
	cm := srv.metrics.cache
	if got := cm.topmSeededC.Value(); got != 0 {
		t.Fatalf("cold sweep counted as seeded (%d)", got)
	}

	// Retraining deterministically from the same seed swaps in a model
	// with identical content: the retained previous result seeds the
	// sweep and the answer is unchanged.
	if err := reg.Put(key, trainTinyModel(t, 51)); err != nil {
		t.Fatal(err)
	}
	var second topResp
	jget(t, client, ts.URL, "/v1/topm?benchmark=convolution&device="+devQ+"&m=5", http.StatusOK, &second)
	if got := cm.topmSeededC.Value(); got != 1 {
		t.Errorf("mltuned_topm_seeded_total = %d after swap, want 1", got)
	}
	for i := range first.Top {
		if second.Top[i] != first.Top[i] {
			t.Errorf("seeded top-M differs at %d: %+v vs %+v", i, second.Top[i], first.Top[i])
		}
	}

	// A genuinely different model must also go through the seeding path
	// (the retained result still prunes), and the answer must reflect
	// the new model — the warm start never serves stale data.
	if err := reg.Put(key, trainTinyModel(t, 52)); err != nil {
		t.Fatal(err)
	}
	var third topResp
	jget(t, client, ts.URL, "/v1/topm?benchmark=convolution&device="+devQ+"&m=5", http.StatusOK, &third)
	if got := cm.topmSeededC.Value(); got != 2 {
		t.Errorf("mltuned_topm_seeded_total = %d after second swap, want 2", got)
	}
	same := true
	for i := range third.Top {
		if third.Top[i] != first.Top[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("top-M unchanged after a different model was swapped in (stale warm start?)")
	}

	// The stats endpoint exports the counter under its metric name.
	var stats struct {
		Telemetry struct {
			Metrics []struct {
				Name string `json:"name"`
			} `json:"metrics"`
		} `json:"telemetry"`
	}
	jget(t, client, ts.URL, "/v1/stats", http.StatusOK, &stats)
	found := false
	for _, m := range stats.Telemetry.Metrics {
		if m.Name == "mltuned_topm_seeded_total" {
			found = true
		}
	}
	if !found {
		t.Error("mltuned_topm_seeded_total missing from /v1/stats telemetry")
	}
}
