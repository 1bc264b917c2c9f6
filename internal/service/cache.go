package service

import (
	"sync"

	"repro/internal/ann"
	"repro/internal/core"
)

// serveState is the read path's state for one servable model: the
// engine view, a pool of batch prediction scratches (so /v1/predict
// allocates nothing steady-state), its space's rendered config keys (so
// HTTP bodies write each config from its index) and the
// memoised top-M sweeps (so repeated /v1/topm hits under load stop
// paying a full-space sweep).
//
// A registry slot owns the serve state of its model, and a portable
// slot owns one per bound device besides (see regEntry). Put, Install
// and Reload replace slots, so replacing a slot is the only
// invalidation: a request that fetched the old slot finishes on it,
// and nothing the server keeps can reach the replaced model after.
type serveState struct {
	// key is the resolved key the state serves under: the slot's own
	// key, or benchmark@<requesting device> for a portable binding.
	key       ModelKey
	model     *core.Model
	scratches sync.Pool // of *core.BatchScratch
	keys      *configKeys

	mu   sync.Mutex
	topM map[int][]Prediction
}

// maxTopMCacheEntries bounds the per-model number of distinct cached M
// values; beyond it the map is reset rather than evicted piecemeal.
const maxTopMCacheEntries = 8

// newServeState builds the serve state for m under key, counting a
// serve-cache miss, and applies the configured engine. Engine selection
// can refuse a model (the int16 proof covers neither exotic topologies
// nor diverged weight magnitudes); the read path then serves that model
// on the float64 reference — correct, just slower — and counts the
// fallback rather than failing requests.
func (s *Server) newServeState(key ModelKey, m *core.Model) *serveState {
	s.metrics.cache.entry(false)
	view := m
	if s.engine != "" && s.engine != ann.EngineFloat64 {
		if v, err := m.WithEngine(s.engine); err == nil {
			view = v
		} else {
			s.metrics.cache.engineFallback()
		}
	}
	st := &serveState{key: key, model: view, keys: newConfigKeys(view.Space()), topM: make(map[int][]Prediction)}
	st.scratches.New = func() any { return view.NewBatchScratch() }
	return st
}

// slotState returns the serve state of e's (loaded) model, building it
// on first use.
func (s *Server) slotState(key ModelKey, e *regEntry) *serveState {
	if st := e.state.Load(); st != nil {
		s.metrics.cache.entry(true)
		return st
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if st := e.state.Load(); st != nil {
		s.metrics.cache.entry(true)
		return st
	}
	st := s.newServeState(key, e.model.Load())
	e.state.Store(st)
	return st
}

// boundState returns the serve state of e's portable model bound to the
// requesting device of key, binding it on first use. The bindings live
// on the portable slot, so they go with it when the slot is replaced.
func (s *Server) boundState(key ModelKey, e *regEntry, device []float64) (*serveState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st, ok := e.binds[key.Device]; ok {
		s.metrics.cache.bind(true)
		s.metrics.cache.entry(true)
		return st, nil
	}
	s.metrics.cache.bind(false)
	bound, err := e.model.Load().WithDevice(device)
	if err != nil {
		return nil, err
	}
	st := s.newServeState(key, bound)
	if e.binds == nil {
		e.binds = make(map[string]*serveState)
	}
	e.binds[key.Device] = st
	return st, nil
}

// retain records the newest top-M result for (key, M). Results hold no
// model, so they outlive slot swaps: the next model's first sweep for
// that M warm-starts from them via core.Model.TopMIncremental.
// Retention is safe where serving stale data would not be, because a
// TopMResult carries content fingerprints — the incremental sweep
// proves the old answer still holds (zero forward passes) or uses it
// only as an exact-rescored seed; the returned set is always identical
// to a cold sweep of the current model.
func (s *Server) retain(key ModelKey, M int, res *core.TopMResult) {
	s.prevMu.Lock()
	defer s.prevMu.Unlock()
	keep := s.prevTop[key]
	if keep == nil || (keep[M] == nil && len(keep) >= maxTopMCacheEntries) {
		keep = make(map[int]*core.TopMResult)
		s.prevTop[key] = keep
	}
	keep[M] = res
}

// retained returns the newest retained top-M result for (key, M), nil
// when there is none.
func (s *Server) retained(key ModelKey, M int) *core.TopMResult {
	s.prevMu.Lock()
	defer s.prevMu.Unlock()
	return s.prevTop[key][M]
}

// predictIndices predicts the configurations at idxs through a pooled
// scratch, appending to dst.
func (st *serveState) predictIndices(idxs []int64, dst []float64) []float64 {
	sc := st.scratches.Get().(*core.BatchScratch)
	defer st.scratches.Put(sc)
	return st.model.PredictIndices(idxs, sc, dst)
}

// topMCached returns st's top-M predictions, computing and memoising
// the sweep on first use. The first sweep for each M warm-starts from
// the key's retained previous result (when one exists): an unchanged
// model reuses it outright, a retrained one pays ≤ M re-scores plus a
// seeded sweep — the answer is identical to a cold sweep either way.
// Concurrent requests for the same state serialise on its lock, so a
// burst of identical top-M queries pays exactly one sweep.
func (s *Server) topMCached(st *serveState, M int) []Prediction {
	st.mu.Lock()
	defer st.mu.Unlock()
	cm := s.metrics.cache
	if out, ok := st.topM[M]; ok {
		cm.topm(true)
		return out
	}
	cm.topm(false)
	prev := s.retained(st.key, M)
	res := st.model.TopMIncremental(M, prev)
	if prev != nil {
		cm.topmSeeded()
	}
	cm.topmSweep(res.Scored, st.model.Space().Size())
	out := predictions(res.Top)
	if len(st.topM) >= maxTopMCacheEntries {
		st.topM = make(map[int][]Prediction)
	}
	st.topM[M] = out
	s.retain(st.key, M, res)
	return out
}
