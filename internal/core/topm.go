package core

import (
	"math"
	"runtime"

	"repro/internal/hashx"
)

// Incremental top-M.
//
// A retrain swaps a new *Model into the registry and a device re-bind
// produces a new view, so pointer identity says "everything changed"
// even when nothing did (a converged retrain) or when the previous
// answer is a near-perfect warm start (weights nudged slightly). The
// sweep over a 131k-config space is the cost; TopMIncremental keeps the
// previous result useful across swaps by keying on *content*:
//
//   - a sweep fingerprint covering everything outside the weights that
//     predictions depend on — space identity, target scaler, log
//     transform, and the bound device tail;
//   - per-ensemble-member generation tags (content hashes of topology,
//     activations and exact weight bits).
//
// If both match the previous result, no prediction can have changed and
// the result is reused outright (zero forward passes). Otherwise, if the
// space still matches, the previous top M are re-scored exactly under
// the current model (≤ M forward passes) and seed every sweep worker's
// heap, so screening engages from the first block against a near-final
// threshold instead of warming up from nothing. Only on a space change
// does the sweep start cold.

// TopMResult is one top-M answer plus the provenance that makes it
// reusable as a warm start.
type TopMResult struct {
	// M is the requested result size.
	M int
	// Top is the result, best first (see TopM). Treat as immutable: a
	// later TopMIncremental may return it unchanged.
	Top []Predicted
	// Scored counts the exact forward passes paid to produce this result:
	// 0 for a pure reuse, ≤ M + survivors for a seeded sweep, and the
	// full screening economics for a cold sweep. It is the measure the
	// incremental contract is pinned on.
	Scored int64
	// fingerprint covers the non-weight prediction inputs; memberTags are
	// the per-member content hashes.
	fingerprint uint64
	memberTags  []uint64
}

// sweepFingerprint hashes everything predictions depend on other than
// the ensemble weights.
func (m *Model) sweepFingerprint() uint64 {
	h := hashx.String("core.topm")
	h = hashx.Combine(h, hashx.String(m.space.Name()))
	for _, p := range m.space.Params() {
		h = hashx.Combine(h, hashx.String(p.Name))
		h = hashx.Combine(h, uint64(len(p.Values)))
		for _, v := range p.Values {
			h = hashx.Combine(h, uint64(int64(v)))
		}
	}
	h = hashx.Combine(h, math.Float64bits(m.scaler.Mean))
	h = hashx.Combine(h, math.Float64bits(m.scaler.Std))
	if m.logT {
		h = hashx.Combine(h, 1)
	}
	h = hashx.Combine(h, uint64(len(m.tail)))
	for _, v := range m.tail {
		h = hashx.Combine(h, math.Float64bits(v))
	}
	return h
}

func tagsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TopMIncremental computes the top M like TopM, warm-started from a
// previous result (nil means cold). The returned set and order are
// always identical to a cold TopM of the current model — the warm start
// only changes how much work proves it. Pass the result of the previous
// call for the same logical (model key, M) across registry swaps and
// re-binds; results from a different M or an incompatible space are
// ignored.
func (m *Model) TopMIncremental(M int, prev *TopMResult) *TopMResult {
	return m.topMIncremental(M, runtime.GOMAXPROCS(0), prev)
}

// topMIncremental is TopMIncremental with an explicit worker count; the
// invariance tests exercise it directly.
func (m *Model) topMIncremental(M, workers int, prev *TopMResult) *TopMResult {
	m.mustBeBound()
	res := &TopMResult{
		M:           M,
		fingerprint: m.sweepFingerprint(),
		memberTags:  m.ensemble.MemberFingerprints(nil),
	}

	if prev != nil && prev.M == M &&
		prev.fingerprint == res.fingerprint && tagsEqual(prev.memberTags, res.memberTags) {
		// Nothing a prediction depends on changed: the previous answer is
		// the current answer, no forward passes needed.
		res.Top = prev.Top
		return res
	}

	var seeds []Predicted
	if prev != nil && prev.M == M && m.seedable(prev) {
		idxs := make([]int64, len(prev.Top))
		for i, p := range prev.Top {
			idxs[i] = p.Index
		}
		// Exact re-score of the previous champions under the current
		// model; these are real scores, so they can seed every heap.
		vals := m.PredictIndices(idxs, new(BatchScratch), make([]float64, 0, len(idxs)))
		seeds = make([]Predicted, len(idxs))
		for i, v := range vals {
			seeds[i] = Predicted{Index: idxs[i], Seconds: v}
		}
		res.Scored += int64(len(idxs))
	}

	top, scored := m.topMSweep(M, workers, seeds)
	res.Top = top
	res.Scored += scored
	return res
}

// seedable reports whether prev's indices are meaningful in this model's
// space: same size is the cheap necessary check, and the fingerprint
// already distinguishes spaces with equal size but different content —
// in that case the seed *indices* are still valid positions, and seeding
// stays correct because seeds are re-scored under the current model.
func (m *Model) seedable(prev *TopMResult) bool {
	size := m.space.Size()
	if len(prev.Top) == 0 || int64(len(prev.Top)) > size {
		return false
	}
	for _, p := range prev.Top {
		if p.Index < 0 || p.Index >= size {
			return false
		}
	}
	return true
}
