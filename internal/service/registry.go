// Package service implements mltuned, the model-serving auto-tuning
// daemon: a model registry persisting trained performance models keyed by
// benchmark×device, a bounded asynchronous job queue running tuning
// sessions concurrently, and the HTTP/JSON API tying them together.
//
// The registry is the paper's portability story made operational: a model
// trained once (by a tuning job, or offline with cmd/mltune -save-model)
// is a reusable artifact that keeps answering predict/top-M queries long
// after tuning ran — across daemon restarts, and on machines that never
// saw the benchmark. Portable models take it across hardware: a
// device-featurised <benchmark>@* model (trained by pooling the sample
// store with device "*") answers for devices that never trained, bound
// per request to the requesting device's descriptor.
//
// Since the storage refactor the daemon is also splittable into planes:
// the registry and sample store persist through a pluggable
// storage.Backend (local filesystem or memory), every model artifact
// carries a generation number, and a serve-plane replica keeps its
// registry fresh by pulling changed artifacts from a train-plane
// upstream (see replicate.go).
package service

import (
	"bytes"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// modelExt is the registry file suffix, matching cmd/mltune -save-model
// artifacts (the core.Model.Save format).
const modelExt = ".mlt"

// PortableDevice is the reserved device label of a portable model: one
// trained with device features from several devices' pooled samples and
// stored under <benchmark>@*. Predict/top-M requests never address it
// directly — resolution falls back to it and binds the requesting
// device's descriptor (see Server resolution order).
const PortableDevice = "*"

// ModelKey identifies one registry slot: a model is trained for one
// benchmark on one device — or, with Device == PortableDevice, for a
// benchmark across devices.
type ModelKey struct {
	Benchmark string
	Device    string
}

// Portable reports whether the key addresses the benchmark's portable
// slot.
func (k ModelKey) Portable() bool { return k.Device == PortableDevice }

func (k ModelKey) String() string { return k.Benchmark + "@" + k.Device }

// fileName is the storage object name of a key's model:
// <escape(benchmark)>@<escape(device)>.mlt. Query-escaping keeps device
// names with spaces (e.g. "Nvidia K40") and any future '@' or '/'
// unambiguous in a flat namespace.
func (k ModelKey) fileName() string {
	return url.QueryEscape(k.Benchmark) + "@" + url.QueryEscape(k.Device) + modelExt
}

// keyFromFileName inverts fileName.
func keyFromFileName(name string) (ModelKey, error) {
	return keyFromEscaped(name, modelExt)
}

// keyFromEscaped parses an <escape(benchmark)>@<escape(device)><ext>
// file name back into its key; the registry and the sample store share
// the naming scheme (with different extensions).
func keyFromEscaped(name, ext string) (ModelKey, error) {
	base := strings.TrimSuffix(name, ext)
	if base == name {
		return ModelKey{}, fmt.Errorf("service: %q is not a %s file", name, ext)
	}
	b, d, ok := strings.Cut(base, "@")
	if !ok {
		return ModelKey{}, fmt.Errorf("service: model file %q is not benchmark@device", name)
	}
	bench, err := url.QueryUnescape(b)
	if err != nil {
		return ModelKey{}, fmt.Errorf("service: model file %q: %w", name, err)
	}
	device, err := url.QueryUnescape(d)
	if err != nil {
		return ModelKey{}, fmt.Errorf("service: model file %q: %w", name, err)
	}
	if bench == "" || device == "" {
		return ModelKey{}, fmt.Errorf("service: model file %q has an empty benchmark or device", name)
	}
	return ModelKey{Benchmark: bench, Device: device}, nil
}

// ErrModelNotFound reports a predict/top-M query for a key the registry
// has no model for (the client should submit a tuning job first).
var ErrModelNotFound = fmt.Errorf("service: no trained model for this benchmark and device")

// regEntry is one registry slot. Models load lazily: startup only scans
// object names, and the first query for a key pays the backend read.
// model and state are atomic pointers so readers (List, cached Gets,
// served requests) never block on mu, which only serialises the one
// load and the builds of the slot's serve state.
//
// The slot owns everything the read path builds for its model (see
// serveState), so replacing the slot drops all of it.
type regEntry struct {
	name string
	// gen is the artifact's storage generation, the replication cursor's
	// unit of change. Written under Registry.mu (Reload/Put/Install).
	gen uint64

	mu    sync.Mutex
	model atomic.Pointer[core.Model]
	state atomic.Pointer[serveState]
	// binds holds a portable model's per-device bindings, keyed by the
	// requesting device; guarded by mu.
	binds map[string]*serveState
}

// Registry stores trained models keyed by benchmark×device, persisted
// through a storage.Backend as core.Model.Save artifacts. It is safe
// for concurrent use.
type Registry struct {
	be    storage.Backend
	loads *telemetry.Counter // backend loads; nil-safe, unmetered standalone

	// fsMu serialises storage-level operations (Reload's scan+swap,
	// Put's write+insert) so a reload snapshot taken mid-Put cannot
	// overwrite the entries map without the just-persisted model.
	fsMu sync.Mutex

	mu      sync.Mutex
	entries map[ModelKey]*regEntry
}

// OpenRegistry opens (creating if needed) a local-filesystem registry
// directory and indexes the model files present — today's default
// deployment, byte-compatible with directories written before the
// storage layer existed. Each model's payload loads lazily on first
// use.
func OpenRegistry(dir string) (*Registry, error) {
	be, err := storage.OpenLocalFS(dir)
	if err != nil {
		return nil, fmt.Errorf("service: opening registry: %w", err)
	}
	return NewRegistry(be)
}

// NewRegistry opens a registry over an explicit storage backend and
// indexes the model objects present.
func NewRegistry(be storage.Backend) (*Registry, error) {
	r := &Registry{be: be}
	if err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// Backend exposes the storage backend (for /v1/stats and the daemon's
// startup log).
func (r *Registry) Backend() storage.Backend { return r.be }

// Dir returns the registry directory for filesystem-backed registries,
// "" otherwise.
func (r *Registry) Dir() string {
	if d, ok := r.be.(interface{ Dir() string }); ok {
		return d.Dir()
	}
	return ""
}

// setMetrics points the registry's load counter at the daemon's
// telemetry; a registry opened standalone (tests, cmd/mltune) stays
// unmetered.
func (r *Registry) setMetrics(loads *telemetry.Counter) { r.loads = loads }

// Reload rescans the storage backend, picking up models written by
// other processes and dropping keys whose objects disappeared. Every
// slot is replaced, so cached in-memory models and their serve state
// are discarded and subsequent queries re-read the backend — the
// handler behind POST /v1/reload. Crash debris (orphaned write
// temporaries) is swept on backends that accumulate it.
func (r *Registry) Reload() error {
	r.fsMu.Lock()
	defer r.fsMu.Unlock()
	if sw, ok := r.be.(storage.Sweeper); ok {
		// No Put is in flight through this registry (we hold fsMu across
		// write+insert) and the backend skips its own live temporaries,
		// so it is safe to clean up rather than leak one file per crash.
		if err := sw.Sweep(); err != nil {
			return fmt.Errorf("service: sweeping registry storage: %w", err)
		}
	}
	objs, err := r.be.List()
	if err != nil {
		return fmt.Errorf("service: scanning registry storage: %w", err)
	}
	entries := make(map[ModelKey]*regEntry)
	for _, obj := range objs {
		if !strings.HasSuffix(obj.Name, modelExt) {
			continue
		}
		key, err := keyFromFileName(obj.Name)
		if err != nil {
			// A stray object in the registry namespace is skipped, not
			// fatal: the daemon should come up with whatever models are
			// usable.
			continue
		}
		entries[key] = &regEntry{name: obj.Name, gen: obj.Generation}
	}
	r.mu.Lock()
	r.entries = entries
	r.mu.Unlock()
	return nil
}

// Get returns the model for key, loading it from the backend on first
// use. It returns ErrModelNotFound when the registry has no object for
// the key.
func (r *Registry) Get(key ModelKey) (*core.Model, error) {
	e, err := r.slot(key)
	if err != nil {
		return nil, err
	}
	return e.model.Load(), nil
}

// slot returns key's current slot with its model loaded (see Get).
func (r *Registry) slot(key ModelKey) (*regEntry, error) {
	r.mu.Lock()
	e, ok := r.entries[key]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrModelNotFound, key)
	}
	if e.model.Load() != nil {
		return e, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.model.Load() != nil {
		return e, nil
	}
	m, err := r.load(e.name)
	if err != nil {
		return nil, fmt.Errorf("service: loading model %s: %w", key, err)
	}
	r.loads.Inc()
	e.model.Store(m)
	return e, nil
}

// load reads one artifact from the backend and decodes it. The model
// owns its weights, so nothing done to the stored object afterwards —
// a Put, a Delete, or an in-place rewrite of a localfs file — can reach
// the loaded model.
func (r *Registry) load(name string) (*core.Model, error) {
	data, _, err := r.be.Get(name)
	if err != nil {
		return nil, err
	}
	return core.LoadModelBytes(data)
}

// GetRaw returns key's serialised artifact bytes and generation — the
// payload of the replication fetch endpoint. It does not populate the
// in-memory model cache.
func (r *Registry) GetRaw(key ModelKey) ([]byte, uint64, error) {
	r.mu.Lock()
	e, ok := r.entries[key]
	r.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrModelNotFound, key)
	}
	data, _, err := r.be.Get(e.name)
	if err != nil {
		return nil, 0, fmt.Errorf("service: reading model %s: %w", key, err)
	}
	r.mu.Lock()
	gen := e.gen
	r.mu.Unlock()
	return data, gen, nil
}

// Put persists model under key (atomically and durably, through the
// backend's temp-write + fsync + rename discipline, so neither a crash
// mid-write nor a power loss right after the swap can corrupt or lose
// a served model) and caches it in memory.
func (r *Registry) Put(key ModelKey, model *core.Model) error {
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		return fmt.Errorf("service: saving model %s: %w", key, err)
	}
	_, err := r.install(key, buf.Bytes(), model)
	return err
}

// Install persists a pre-serialised artifact under key after verifying
// it parses as a loadable model — the replication install path. The
// parsed model is cached, so the first predict after a sync pays no
// extra load, and a corrupt or truncated upstream response can never
// reach the registry.
func (r *Registry) Install(key ModelKey, data []byte) (uint64, error) {
	// The parsed model owns copies of its weights, so data may be
	// persisted (and later reused by the caller) independently of it.
	model, err := core.LoadModelBytes(data)
	if err != nil {
		return 0, fmt.Errorf("service: installing model %s: artifact does not parse: %w", key, err)
	}
	return r.install(key, data, model)
}

// install writes the artifact and swaps the in-memory slot. It is the
// shared tail of Put and Install.
func (r *Registry) install(key ModelKey, data []byte, model *core.Model) (uint64, error) {
	r.fsMu.Lock()
	defer r.fsMu.Unlock()
	info, err := r.be.Put(key.fileName(), data)
	if err != nil && info.Generation == 0 {
		return 0, fmt.Errorf("service: saving model %s: %w", key, err)
	}
	// A non-zero generation means the swap IS the persisted state even
	// if a trailing durability step (directory fsync) failed: install it
	// in memory unconditionally, or storage and memory would disagree
	// until a reload; only then report the durability error.
	e := &regEntry{name: info.Name, gen: info.Generation}
	e.model.Store(model)
	r.mu.Lock()
	r.entries[key] = e
	r.mu.Unlock()
	if err != nil {
		return info.Generation, fmt.Errorf("service: saving model %s: %w", key, err)
	}
	return info.Generation, nil
}

// ModelInfo describes one registry slot for the listing endpoint.
type ModelInfo struct {
	Benchmark string `json:"benchmark"`
	Device    string `json:"device"`
	// Portable marks the benchmark's <bench>@* slot: a device-featurised
	// model that predict/top-M resolution falls back to for devices
	// without an exact model.
	Portable bool      `json:"portable,omitempty"`
	File     string    `json:"file"`
	Bytes    int64     `json:"bytes"`
	Modified time.Time `json:"modified"`
	// Generation is the artifact's storage change number: it increases
	// on every swap of this slot, and replicas pull exactly the slots
	// whose generation moved past their cursor (GET /v1/models?since=).
	Generation uint64 `json:"generation"`
	// Loaded reports whether the model is resident in memory (false for
	// slots that have not been queried since startup or reload).
	Loaded bool `json:"loaded"`
	// SpaceSize is the tuning-space size of a loaded model (0 otherwise:
	// reporting it for unloaded models would defeat lazy loading).
	SpaceSize int64 `json:"space_size,omitempty"`
	// WeightFormat is the persistence version of a loaded model's weight
	// encoding (see core.Model.WeightFormat); 0 for unloaded slots.
	WeightFormat int `json:"weight_format,omitempty"`
}

// List describes every registry slot, sorted by key.
func (r *Registry) List() []ModelInfo {
	infos, _ := r.ListSince(0)
	return infos
}

// ListSince describes the slots whose generation moved past since
// (since 0 = every slot), plus the registry's generation high-water
// mark — the delta protocol behind GET /v1/models?since= and pull
// replication. The slot set and the high-water mark are snapshotted
// together under the registry lock, so a poller that advances its
// cursor to the returned generation cannot miss a concurrent swap.
func (r *Registry) ListSince(since uint64) ([]ModelInfo, uint64) {
	type slot struct {
		key ModelKey
		e   *regEntry
		gen uint64
	}
	r.mu.Lock()
	var gen uint64
	slots := make([]slot, 0, len(r.entries))
	for k, e := range r.entries {
		if e.gen > gen {
			gen = e.gen
		}
		if e.gen > since {
			slots = append(slots, slot{key: k, e: e, gen: e.gen})
		}
	}
	r.mu.Unlock()
	sort.Slice(slots, func(i, j int) bool { return slots[i].key.String() < slots[j].key.String() })

	out := make([]ModelInfo, 0, len(slots))
	for _, s := range slots {
		info := ModelInfo{Benchmark: s.key.Benchmark, Device: s.key.Device,
			Portable: s.key.Portable(), File: s.e.name, Generation: s.gen}
		if st, err := r.be.Stat(s.e.name); err == nil {
			info.Bytes = st.Size
			info.Modified = st.ModTime.UTC()
		}
		if m := s.e.model.Load(); m != nil {
			info.Loaded = true
			info.SpaceSize = m.Space().Size()
			info.WeightFormat = m.WeightFormat()
		}
		out = append(out, info)
	}
	return out, gen
}

// Generation returns the registry's generation high-water mark: the
// largest artifact generation any slot carries, 0 for an empty
// registry.
func (r *Registry) Generation() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var gen uint64
	for _, e := range r.entries {
		if e.gen > gen {
			gen = e.gen
		}
	}
	return gen
}

// Len returns the number of registry slots.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}
