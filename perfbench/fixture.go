package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sync"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/service"
	"repro/internal/service/rpcclient"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/tuning"
)

// Set-up models are the paper's topology (k=11, 30 hidden units) trained
// on fixedSamples valid measurements for fixedEpochs epochs. Their seeds
// are constants, not the run's seed, so every run sets up the same
// models with the same work.
const (
	fixedSamples = 200
	fixedEpochs  = 200
	fixedWorkers = 2
)

// fixture is one trained set-up model and its v4 artifact.
type fixture struct {
	key      service.ModelKey
	artifact []byte
}

// trainFixture measures fixedSamples valid configurations of benchmark
// on device with a seeded sampler and trains a model on them.
func trainFixture(benchmark, device string, seed int64) (fixture, error) {
	b, err := bench.Lookup(benchmark)
	if err != nil {
		return fixture{}, err
	}
	d, err := devsim.Lookup(device)
	if err != nil {
		return fixture{}, err
	}
	meas, err := core.NewSimMeasurer(b, d, bench.Size{}, 0)
	if err != nil {
		return fixture{}, err
	}
	space := b.Space()
	idxs := space.SampleIndices(rand.New(rand.NewSource(seed)), 8*fixedSamples)
	var samples []core.Sample
	var invalid []tuning.Config
	for _, idx := range idxs {
		if len(samples) == fixedSamples {
			break
		}
		cfg := space.At(idx)
		secs, err := meas.Measure(context.Background(), cfg)
		switch {
		case devsim.IsInvalid(err):
			invalid = append(invalid, cfg)
		case err != nil:
			return fixture{}, err
		default:
			samples = append(samples, core.Sample{Config: cfg, Seconds: secs})
		}
	}
	mc := core.DefaultModelConfig(seed)
	mc.Ensemble.Workers = fixedWorkers
	mc.Ensemble.Train.Epochs = fixedEpochs
	model, err := core.TrainModel(space, samples, invalid, mc)
	if err != nil {
		return fixture{}, fmt.Errorf("training %s@%s: %w", benchmark, device, err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		return fixture{}, err
	}
	return fixture{key: service.ModelKey{Benchmark: benchmark, Device: device}, artifact: buf.Bytes()}, nil
}

// loadView loads an artifact the way the registry does (zero-copy from
// bytes) and selects an engine: the in-process twin of a served model.
func loadView(artifact []byte, engine string) (*core.Model, error) {
	m, err := core.LoadModelBytes(artifact, nil)
	if err != nil {
		return nil, err
	}
	return m.WithEngine(engine)
}

// daemon is one in-process mltuned: the service core over a memory
// backend, served over loopback HTTP and RPC, plus one client of each.
type daemon struct {
	be   storage.Backend
	reg  *service.Registry
	srv  *service.Server
	http *http.Server
	base string
	rpc  *rpcclient.Client
	hc   *http.Client

	cancel context.CancelFunc
	wg     sync.WaitGroup
	// files maps keys to their backend object names.
	files map[service.ModelKey]string
}

// servedEngine is the engine the daemons serve on.
const servedEngine = "int16"

// startDaemon installs the fixtures and starts serving. The registry
// is reloaded after the installs, so the first query of each key loads
// it from the backend exactly as a restarted daemon would.
func startDaemon(fixtures []fixture) (*daemon, error) {
	d := &daemon{be: storage.NewMemory(), files: make(map[service.ModelKey]string)}
	reg, err := service.NewRegistry(d.be)
	if err != nil {
		return nil, err
	}
	d.reg = reg
	for _, f := range fixtures {
		m, err := core.LoadModelBytes(f.artifact, nil)
		if err != nil {
			return nil, err
		}
		if err := reg.Put(f.key, m); err != nil {
			return nil, err
		}
	}
	for _, info := range reg.List() {
		d.files[service.ModelKey{Benchmark: info.Benchmark, Device: info.Device}] = info.File
	}
	srv, err := service.New(reg, 1, 0, service.WithEngine(servedEngine), service.WithTrainWorkers(fixedWorkers))
	if err != nil {
		return nil, err
	}
	d.srv = srv
	if _, err := srv.ReloadModels(); err != nil {
		return nil, err
	}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hl.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	d.http = &http.Server{Handler: srv}
	d.base = "http://" + hl.Addr().String()
	d.wg.Add(2)
	go func() {
		defer d.wg.Done()
		d.http.Serve(hl) // returns http.ErrServerClosed on close
	}()
	go func() {
		defer d.wg.Done()
		srv.ServeRPC(ctx, rl) // returns nil once ctx is cancelled
	}()
	// One connection per client: the HTTP client keeps one keep-alive
	// connection, the RPC client pools one.
	d.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	d.rpc = rpcclient.New(rl.Addr().String(), rpcclient.WithMaxIdle(1))
	return d, nil
}

// close stops the listeners, waits for their loops and drains the job
// queue.
func (d *daemon) close() {
	if d == nil {
		return
	}
	d.rpc.Close()
	d.hc.CloseIdleConnections()
	d.http.Close()
	d.cancel()
	d.wg.Wait()
	d.srv.Drain(context.Background())
}

// getJSON fetches path and decodes the JSON body into v.
func (d *daemon) getJSON(path string, v any) ([]byte, error) {
	resp, err := d.hc.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	return readJSON(resp, v)
}

// postJSON posts body to path and decodes the JSON response into v.
func (d *daemon) postJSON(path string, body []byte, v any) ([]byte, error) {
	resp, err := d.hc.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return readJSON(resp, v)
}

func readJSON(resp *http.Response, v any) ([]byte, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, json.Unmarshal(body, v)
}

// counters is a snapshot of the daemon's counters from GET /v1/stats.
type counters map[string]float64

func (d *daemon) stats() (counters, error) {
	var st struct {
		Telemetry telemetry.Snapshot `json:"telemetry"`
	}
	if _, err := d.getJSON("/v1/stats", &st); err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %w", err)
	}
	c := make(counters)
	for _, m := range st.Telemetry.Metrics {
		for _, v := range m.Values {
			c[m.Name] += v.Value
		}
	}
	return c, nil
}

// diff returns c[name] - base[name].
func (c counters) diff(base counters, name string) float64 { return c[name] - base[name] }

// query renders the model-key query string of a key.
func query(key service.ModelKey) string {
	return "benchmark=" + url.QueryEscape(key.Benchmark) + "&device=" + url.QueryEscape(key.Device)
}

var errMismatch = errors.New("response differs from the in-process reference")
