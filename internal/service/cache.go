package service

import (
	"sync"
	"sync/atomic"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/tuning"
)

// serveCache is the daemon's read-path cache: per-model pools of batch
// prediction scratches (so /v1/predict allocates nothing steady-state)
// and memoised top-M sweeps keyed (ModelKey, M) (so repeated /v1/topm
// hits under load stop paying a full-space sweep).
//
// Entries are invalidated two ways, belt and braces: explicitly by the
// Put/Reload paths (Server calls invalidate/invalidateAll), and
// implicitly by pointer identity — entry returns a fresh slot whenever
// the registry hands out a different *core.Model than the slot was built
// for, so a cache can never serve results from a replaced model.
//
// Top-M *results* outlive their entries: every computed core.TopMResult
// is retained per (key, M) across invalidation and entry replacement,
// and the next entry's first sweep for that M warm-starts from it via
// core.Model.TopMIncremental. Retention is safe where serving stale data
// would not be, because a TopMResult carries content fingerprints — the
// incremental sweep proves the old answer still holds (zero forward
// passes) or uses it only as an exact-rescored seed; the returned set is
// always identical to a cold sweep of the current model.
type serveCache struct {
	m *cacheMetrics // nil-safe: a bare cache runs unmetered
	// engine is the read path's configured inference engine name
	// (Server.WithEngine); "" serves on the float64 reference.
	engine string

	// epoch counts invalidations. A request reads it before fetching its
	// model from the registry; a slot or binding built after a swap or
	// reload has invalidated since then may hold the replaced model, so
	// it serves that one request but is not stored — otherwise it would
	// pin the replaced model (and its memory mapping) until the key's
	// next request.
	epoch atomic.Uint64

	mu      sync.Mutex
	entries map[ModelKey]*serveEntry
	// binds memoises portable-model device bindings per resolved key, so
	// repeated requests for one device reuse the same bound *core.Model —
	// which is what keeps the pointer-identity entry cache effective on
	// the portable path. A bind is only valid while its parent (the
	// registry's current portable model) is unchanged.
	binds map[ModelKey]bindRec
	// prevTop retains the newest top-M result per (key, M) — warm-start
	// provenance, not served data, so invalidation never clears it.
	prevTop map[ModelKey]map[int]*core.TopMResult
}

// bindRec is one memoised device binding of a portable model.
type bindRec struct {
	parent *core.Model
	bound  *core.Model
}

// serveEntry caches read-path state for one loaded model.
type serveEntry struct {
	// src is the model the registry (or bind memo) handed out — the
	// pointer the cache's identity check runs on. model is the serving
	// view: src with the configured engine applied, or src itself when
	// the engine is the reference or could not be applied.
	src       *core.Model
	model     *core.Model
	cache     *serveCache
	key       ModelKey
	m         *cacheMetrics
	scratches sync.Pool // of *core.BatchScratch

	mu   sync.Mutex
	topM map[int]*topMRec
	// prev is a snapshot of the retained results taken at entry build;
	// each M's first sweep warm-starts from prev[M].
	prev map[int]*core.TopMResult
}

// topMRec is one memoised sweep: the rendered response plus the
// provenance-carrying result future sweeps warm-start from.
type topMRec struct {
	res *core.TopMResult
	out []Prediction
}

// maxTopMCacheEntries bounds the per-model number of distinct cached M
// values; beyond it the map is reset rather than evicted piecemeal.
const maxTopMCacheEntries = 8

func newServeCache(m *cacheMetrics, engine string) *serveCache {
	return &serveCache{
		m:       m,
		engine:  engine,
		entries: make(map[ModelKey]*serveEntry),
		binds:   make(map[ModelKey]bindRec),
		prevTop: make(map[ModelKey]map[int]*core.TopMResult),
	}
}

// bound returns parent bound to the given device vector, memoised under
// key. The memo is keyed by the *resolved* key (benchmark@requesting
// device), and revalidated by parent pointer: a retrained or reloaded
// portable model invalidates every stale binding on first use. epoch is
// the invalidation count read before parent was fetched (see
// serveCache.epoch).
func (c *serveCache) bound(key ModelKey, parent *core.Model, device []float64, epoch uint64) (*core.Model, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.binds[key]; ok && r.parent == parent {
		c.m.bind(true)
		return r.bound, nil
	}
	c.m.bind(false)
	bound, err := parent.WithDevice(device)
	if err != nil {
		return nil, err
	}
	if c.epoch.Load() == epoch {
		c.binds[key] = bindRec{parent: parent, bound: bound}
	}
	return bound, nil
}

// engineView applies the configured engine to m. Engine selection can
// refuse a model (the int16 proof covers neither exotic topologies nor
// diverged weight magnitudes); the read path then serves that model on
// the float64 reference — correct, just slower — and counts the
// fallback rather than failing requests.
func (c *serveCache) engineView(m *core.Model) *core.Model {
	if c.engine == "" || c.engine == ann.EngineFloat64 {
		return m
	}
	view, err := m.WithEngine(c.engine)
	if err != nil {
		c.m.engineFallback()
		return m
	}
	return view
}

// entry returns the cache slot for key's current model, building a fresh
// one when none exists or the model pointer changed (reload, retrain,
// re-bind). A fresh slot snapshots the retained top-M results for the
// key, so its first sweeps start warm. epoch is the invalidation count
// read before m was fetched (see serveCache.epoch).
func (c *serveCache) entry(key ModelKey, m *core.Model, epoch uint64) *serveEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.src != m {
		c.m.entry(false)
		prev := make(map[int]*core.TopMResult, len(c.prevTop[key]))
		for M, res := range c.prevTop[key] {
			prev[M] = res
		}
		e = &serveEntry{src: m, model: c.engineView(m), cache: c, key: key,
			m: c.m, topM: make(map[int]*topMRec), prev: prev}
		view := e.model
		e.scratches.New = func() any { return view.NewBatchScratch() }
		if c.epoch.Load() == epoch {
			c.entries[key] = e
		}
	} else {
		c.m.entry(true)
	}
	return e
}

// retain records the newest result for (key, M). It must be called
// without c.mu held (topMCached holds its entry lock, and entry locks
// never nest inside the cache lock).
func (c *serveCache) retain(key ModelKey, M int, res *core.TopMResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keep := c.prevTop[key]
	if keep == nil {
		keep = make(map[int]*core.TopMResult)
		c.prevTop[key] = keep
	}
	if _, ok := keep[M]; !ok && len(keep) >= maxTopMCacheEntries {
		keep = make(map[int]*core.TopMResult)
		c.prevTop[key] = keep
	}
	keep[M] = res
}

// invalidate drops key's slot and binding (a retrained model was Put).
// Bindings of *other* keys that resolved through a replaced portable
// model self-invalidate on their next use via the parent-pointer check.
// Retained top-M results survive: they seed the replacement model's
// first sweeps.
func (c *serveCache) invalidate(key ModelKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, key)
	delete(c.binds, key)
	c.epoch.Add(1)
	c.m.invalidated()
}

// invalidateAll drops every slot (the registry was reloaded). Retained
// top-M results survive here too.
func (c *serveCache) invalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[ModelKey]*serveEntry)
	c.binds = make(map[ModelKey]bindRec)
	c.epoch.Add(1)
	c.m.invalidated()
}

// predictBatch predicts cfgs through a pooled scratch, appending to dst.
func (e *serveEntry) predictBatch(cfgs []tuning.Config, dst []float64) []float64 {
	s := e.scratches.Get().(*core.BatchScratch)
	defer e.scratches.Put(s)
	return e.model.PredictBatchWith(cfgs, s, dst)
}

// topMCached returns the model's top-M predictions, computing and
// memoising the sweep on first use. The first sweep for each M
// warm-starts from the key's retained previous result (when one exists):
// an unchanged model reuses it outright, a retrained one pays ≤ M
// re-scores plus a seeded sweep — the answer is identical to a cold
// sweep either way. Concurrent requests for the same entry serialise on
// the entry lock, so a burst of identical top-M queries pays exactly one
// sweep.
func (e *serveEntry) topMCached(M int) []Prediction {
	e.mu.Lock()
	defer e.mu.Unlock()
	if rec, ok := e.topM[M]; ok {
		e.m.topm(true)
		return rec.out
	}
	e.m.topm(false)
	prev := e.prev[M]
	res := e.model.TopMIncremental(M, prev)
	if prev != nil {
		e.m.topmSeeded()
	}
	e.m.topmSweep(res.Scored, e.model.Space().Size())
	out := make([]Prediction, len(res.Top))
	for i, p := range res.Top {
		cfg := e.model.Space().At(p.Index)
		out[i] = Prediction{Index: p.Index, Config: cfg.Map(), Seconds: p.Seconds}
	}
	if len(e.topM) >= maxTopMCacheEntries {
		e.topM = make(map[int]*topMRec)
	}
	e.topM[M] = &topMRec{res: res, out: out}
	e.cache.retain(e.key, M, res)
	return out
}
