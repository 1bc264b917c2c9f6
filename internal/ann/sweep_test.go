package ann

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// sweepSpace is a synthetic odometer space for sweeper tests: per-position
// Q14 level tables plus a fixed tail, sized to keep the full cross
// product enumerable.
type sweepSpace struct {
	levels [][]int16
	tail   []int16
	size   int64
}

// newSweepSpace splits an input width into positions and a tail with
// in-domain Q14 features. Arities cycle through small values so every
// odometer carry depth occurs during a full sweep.
func newSweepSpace(rng *rand.Rand, dim int) sweepSpace {
	tailLen := 0
	if dim >= 3 {
		tailLen = 2
	} else if dim == 2 {
		tailLen = 1
	}
	P := dim - tailLen
	arities := []int{3, 2, 4}
	sp := sweepSpace{size: 1}
	for p := 0; p < P; p++ {
		lv := make([]int16, arities[p%len(arities)])
		for v := range lv {
			lv[v] = QuantizeQ14(QuantInputLo + rng.Float64()*(QuantInputHi-QuantInputLo))
		}
		sp.levels = append(sp.levels, lv)
		sp.size *= int64(len(lv))
	}
	for t := 0; t < tailLen; t++ {
		sp.tail = append(sp.tail, QuantizeQ14(QuantInputLo+rng.Float64()*(QuantInputHi-QuantInputLo)))
	}
	return sp
}

// encodeIndex appends the Q14 feature vector of idx — positions decoded
// most-significant-first with the last position fastest, then the tail —
// the layout the sweeper is documented against (and the layout of
// tuning.FeatureSchema.EncodeIndexQ14).
func (sp sweepSpace) encodeIndex(idx int64, dst []int16) []int16 {
	base := len(dst)
	for range sp.levels {
		dst = append(dst, 0)
	}
	rem := idx
	for p := len(sp.levels) - 1; p >= 0; p-- {
		arity := int64(len(sp.levels[p]))
		dst[base+p] = sp.levels[p][rem%arity]
		rem /= arity
	}
	return append(dst, sp.tail...)
}

// quantize16 builds the int16 engine over e, failing the test if the
// quantiser refuses.
func quantize16(tb testing.TB, e *Ensemble) *QuantizedEnsemble {
	tb.Helper()
	q, err := QuantizeEnsemble(e)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// TestSweeperMatchesBatch pins the sweeper's contract: over every
// conformance topology (fused two-layer, deep, single-layer linear,
// trained), a full in-order sweep returns bit-identical bounds to
// PredictBatchBoundsQ14 on the same features.
// No tolerance — the incremental, tile-fused integer state must be
// exactly the from-scratch forward pass, or the sweep's
// pruning-soundness argument collapses.
func TestSweeperMatchesBatch(t *testing.T) {
	for _, ec := range engineCases(t) {
		q := quantize16(t, ec.e)
		t.Run(ec.name+"/"+EngineInt16, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			sp := newSweepSpace(rng, q.InputDim())
			sw, err := q.NewIndexSweeper(sp.levels, sp.tail)
			if err != nil {
				t.Fatal(err)
			}
			if sw.Size() != sp.size {
				t.Fatalf("Size() = %d, want %d", sw.Size(), sp.size)
			}
			scratch := q.NewQuantScratch(1)
			var qxs []int16
			wantLb := make([]float64, 1)
			wantUb := make([]float64, 1)
			lb := make([]float64, 64)
			ub := make([]float64, 64)
			// Sweep in uneven blocks so block boundaries land on every
			// carry depth — and interrupt tiles mid-run — at least once.
			block := 7
			for start := int64(0); start < sp.size; start += int64(block) {
				n := block
				if rest := sp.size - start; int64(n) > rest {
					n = int(rest)
				}
				sw.Bounds(start, n, lb, ub)
				for i := 0; i < n; i++ {
					idx := start + int64(i)
					qxs = sp.encodeIndex(idx, qxs[:0])
					q.PredictBatchBoundsQ14(qxs, 1, scratch, wantLb, wantUb)
					if lb[i] != wantLb[0] || ub[i] != wantUb[0] {
						t.Fatalf("index %d: sweeper [%g, %g] != batch [%g, %g]",
							idx, lb[i], ub[i], wantLb[0], wantUb[0])
					}
				}
			}
		})
	}
}

// TestSweeperSeek pins that non-contiguous starts — the shape of the
// sweep's worker partitions and of a re-used sweeper — re-seek correctly:
// random jumps return the same bounds as the in-order walk.
func TestSweeperSeek(t *testing.T) {
	for _, ec := range engineCases(t) {
		q := quantize16(t, ec.e)
		t.Run(ec.name+"/"+EngineInt16, func(t *testing.T) {
			rng := rand.New(rand.NewSource(47))
			sp := newSweepSpace(rng, q.InputDim())
			inOrder, err := q.NewIndexSweeper(sp.levels, sp.tail)
			if err != nil {
				t.Fatal(err)
			}
			wantLb := make([]float64, sp.size)
			wantUb := make([]float64, sp.size)
			inOrder.Bounds(0, int(sp.size), wantLb, wantUb)

			jumping, err := q.NewIndexSweeper(sp.levels, sp.tail)
			if err != nil {
				t.Fatal(err)
			}
			lb := make([]float64, 16)
			ub := make([]float64, 16)
			for trial := 0; trial < 50; trial++ {
				start := rng.Int63n(sp.size)
				n := 1 + rng.Intn(16)
				if rest := sp.size - start; int64(n) > rest {
					n = int(rest)
				}
				jumping.Bounds(start, n, lb, ub)
				for i := 0; i < n; i++ {
					if lb[i] != wantLb[start+int64(i)] || ub[i] != wantUb[start+int64(i)] {
						t.Fatalf("trial %d index %d: seeked [%g, %g] != in-order [%g, %g]",
							trial, start+int64(i), lb[i], ub[i], wantLb[start+int64(i)], wantUb[start+int64(i)])
					}
				}
			}
		})
	}
}

// TestSweeperBoundsCeil pins the pruning walk's contract against the
// plain one: over every conformance topology and a spread of ceilings,
// every entry BoundsCeil reports finitely is bit-identical to Bounds,
// every +Inf entry's true lower bound exceeds the ceiling, and a +Inf
// ceiling reproduces Bounds exactly. Blocks are uneven so subtree
// skips land on every alignment, and the same sweeper object keeps
// walking across blocks — the odometer state after a skip must stay
// consistent with the indices it reports next.
func TestSweeperBoundsCeil(t *testing.T) {
	for _, ec := range engineCases(t) {
		q := quantize16(t, ec.e)
		t.Run(ec.name+"/"+EngineInt16, func(t *testing.T) {
			rng := rand.New(rand.NewSource(59))
			sp := newSweepSpace(rng, q.InputDim())
			ref, err := q.NewIndexSweeper(sp.levels, sp.tail)
			if err != nil {
				t.Fatal(err)
			}
			wantLb := make([]float64, sp.size)
			wantUb := make([]float64, sp.size)
			ref.Bounds(0, int(sp.size), wantLb, wantUb)

			// Ceilings from deep inside the lb distribution to past its
			// top, plus both infinities: every pruning regime from
			// "skip almost everything" to "skip nothing".
			ordered := append([]float64(nil), wantLb...)
			sort.Float64s(ordered)
			ceils := []float64{math.Inf(-1), math.Inf(1)}
			for _, f := range []float64{0.05, 0.25, 0.5, 0.9} {
				ceils = append(ceils, ordered[int(float64(len(ordered)-1)*f)])
			}
			for _, ceil := range ceils {
				sw, err := q.NewIndexSweeper(sp.levels, sp.tail)
				if err != nil {
					t.Fatal(err)
				}
				lb := make([]float64, 11)
				ub := make([]float64, 11)
				pruned := 0
				for start := int64(0); start < sp.size; start += int64(len(lb)) {
					n := len(lb)
					if rest := sp.size - start; int64(n) > rest {
						n = int(rest)
					}
					sw.BoundsCeil(start, n, lb, ub, ceil)
					for i := 0; i < n; i++ {
						idx := start + int64(i)
						if math.IsInf(lb[i], 1) {
							pruned++
							if !math.IsInf(ub[i], 1) {
								t.Fatalf("ceil %g index %d: lb +Inf but ub %g", ceil, idx, ub[i])
							}
							if wantLb[idx] <= ceil {
								t.Fatalf("ceil %g index %d: pruned but true lb %g ≤ ceil",
									ceil, idx, wantLb[idx])
							}
							continue
						}
						if lb[i] != wantLb[idx] || ub[i] != wantUb[idx] {
							t.Fatalf("ceil %g index %d: [%g, %g] != Bounds [%g, %g]",
								ceil, idx, lb[i], ub[i], wantLb[idx], wantUb[idx])
						}
					}
				}
				if math.IsInf(ceil, 1) && pruned != 0 {
					t.Fatalf("+Inf ceiling pruned %d entries", pruned)
				}
			}
		})
	}
}

// TestSweeperFloor pins the unit floor's contract: over every
// conformance topology, for every depth and every aligned subtree, Floor
// is at most every lb Bounds reports inside that subtree, and a topology
// without prune tables (deep members) reports no floor at all. The same
// sweeper answers a one-index Bounds after each floor, so the odometer
// and its lazily rebuilt rows stay consistent across floor queries.
func TestSweeperFloor(t *testing.T) {
	for _, ec := range engineCases(t) {
		q := quantize16(t, ec.e)
		t.Run(ec.name+"/"+EngineInt16, func(t *testing.T) {
			rng := rand.New(rand.NewSource(67))
			sp := newSweepSpace(rng, q.InputDim())
			ref, err := q.NewIndexSweeper(sp.levels, sp.tail)
			if err != nil {
				t.Fatal(err)
			}
			wantLb := make([]float64, sp.size)
			wantUb := make([]float64, sp.size)
			ref.Bounds(0, int(sp.size), wantLb, wantUb)

			sw, err := q.NewIndexSweeper(sp.levels, sp.tail)
			if err != nil {
				t.Fatal(err)
			}
			deep := len(ec.e.nets[0].weights) > 2
			lb := make([]float64, 1)
			ub := make([]float64, 1)
			n := int64(1)
			for p := len(sp.levels) - 1; p >= 0; p-- {
				n *= int64(len(sp.levels[p]))
				for start := int64(0); start < sp.size; start += n {
					floor, ok := sw.Floor(start, n)
					if ok == deep {
						t.Fatalf("Floor(%d, %d) ok = %v for a topology with deep = %v", start, n, ok, deep)
					}
					if !ok {
						continue
					}
					for idx := start; idx < start+n; idx++ {
						if floor > wantLb[idx] {
							t.Fatalf("Floor(%d, %d) = %g above index %d's lb %g", start, n, floor, idx, wantLb[idx])
						}
					}
					mid := start + n/2
					sw.Bounds(mid, 1, lb, ub)
					if lb[0] != wantLb[mid] || ub[0] != wantUb[mid] {
						t.Fatalf("after Floor(%d, %d): index %d [%g, %g] != in-order [%g, %g]",
							start, n, mid, lb[0], ub[0], wantLb[mid], wantUb[mid])
					}
				}
			}
		})
	}
}

// TestSweeperZeroAlloc pins that a sweeping Bounds pass, a unit Floor
// query and a BoundsCeil pass at a finite ceiling allocate nothing, on a
// fresh sweeper and on a Fork: the sweeper exists to make full-space
// screening cheap, and a per-block allocation would show up a hundred
// thousand times per sweep. The floor stack BoundsCeil cuts finishes
// with is allocated once per sweeper, and a fork gets its own up front.
func TestSweeperZeroAlloc(t *testing.T) {
	for _, ec := range engineCases(t) {
		q := quantize16(t, ec.e)
		rng := rand.New(rand.NewSource(3))
		sp := newSweepSpace(rng, q.InputDim())
		sw, err := q.NewIndexSweeper(sp.levels, sp.tail)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]float64, sp.size)
		sw.Bounds(0, int(sp.size), all, make([]float64, sp.size))
		sort.Float64s(all)
		ceil := all[len(all)/2]
		n := 32
		if int64(n) > sp.size {
			n = int(sp.size)
		}
		lb := make([]float64, n)
		ub := make([]float64, n)
		pass := func(sw *QuantSweeper) func() {
			return func() {
				sw.Floor(0, sp.size)
				sw.Bounds(0, n, lb, ub)
				sw.BoundsCeil(0, n, lb, ub, ceil)
				if rest := sp.size - int64(n); rest > 0 {
					m := n
					if int64(m) > rest {
						m = int(rest)
					}
					sw.Bounds(int64(n), m, lb, ub)
					sw.BoundsCeil(int64(n), m, lb, ub, ceil)
				}
			}
		}
		fresh, err := q.NewIndexSweeper(sp.levels, sp.tail)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			sw   *QuantSweeper
		}{{"fresh", fresh}, {"fork", sw.Fork()}} {
			if allocs := testing.AllocsPerRun(20, pass(c.sw)); allocs != 0 {
				t.Errorf("%s/%s %s: Floor, Bounds and BoundsCeil allocated %.1f times per sweep pass",
					ec.name, EngineInt16, c.name, allocs)
			}
		}
	}
}

// splitSpace is a space of the first positions inputs of an input width
// (arities cycling through 3, 2 and 4), with the rest as its fixed tail.
func splitSpace(rng *rand.Rand, dim, positions int) sweepSpace {
	draw := func() int16 { return QuantizeQ14(QuantInputLo + rng.Float64()*(QuantInputHi-QuantInputLo)) }
	arities := []int{3, 2, 4}
	sp := sweepSpace{size: 1}
	for p := 0; p < positions; p++ {
		lv := make([]int16, arities[p%len(arities)])
		for v := range lv {
			lv[v] = draw()
		}
		sp.levels = append(sp.levels, lv)
		sp.size *= int64(len(lv))
	}
	for t := positions; t < dim; t++ {
		sp.tail = append(sp.tail, draw())
	}
	return sp
}

// NewScorer returns a scorer over tables built for it alone.
func (s *QuantSweeper) NewScorer() *IndexScorer { return s.ScoreTables(nil).NewScorer() }

// mergeArityCases are position arities that reach every way ScoreTables
// groups positions: runs that merge, up to the cap exactly; a run whose
// product passes the cap partway; arities above the cap; P = 1 and 2; a
// first group of one position with base folded into a later merged
// table; no merged table at all; and small last positions that a run
// could absorb under the cap but must not.
var mergeArityCases = []struct {
	name    string
	arities []int
}{
	{"merge-run", []int{2, 2, 2, 2, 3}},
	{"merge-two-runs", []int{2, 8, 2, 8, 3}},
	{"passes-cap-partway", []int{4, 2, 4, 3, 2}},
	{"above-cap", []int{17, 2, 20, 2, 3}},
	{"single-then-merged", []int{17, 2, 2, 3}},
	{"no-merged-table", []int{17, 17, 2}},
	{"many-rows", []int{9, 2, 9, 2, 9, 2}},
	{"p1", []int{5}},
	{"p2", []int{3, 4}},
	{"p2-cap", []int{16, 2}},
	{"small-last", []int{2, 2, 2}},
	{"small-last-after-cap", []int{4, 4, 2}},
}

// aritySpace is a space of len(arities) positions with those arities
// and the rest of an input width as its fixed tail; ok is false when
// the width has fewer inputs than positions.
func aritySpace(rng *rand.Rand, dim int, arities []int) (sp sweepSpace, ok bool) {
	if len(arities) > dim {
		return sweepSpace{}, false
	}
	draw := func() int16 { return QuantizeQ14(QuantInputLo + rng.Float64()*(QuantInputHi-QuantInputLo)) }
	sp.size = 1
	for _, a := range arities {
		lv := make([]int16, a)
		for v := range lv {
			lv[v] = draw()
		}
		sp.levels = append(sp.levels, lv)
		sp.size *= int64(a)
	}
	for t := len(arities); t < dim; t++ {
		sp.tail = append(sp.tail, draw())
	}
	return sp, true
}

// TestIndexScorerMatchesBatch pins the scorer's contract: over every
// conformance topology, on the sweeper tests' space, on a one-position
// space with a tail, on a space of every input and on each of
// mergeArityCases that fits the width, Score returns exactly
// PredictBatchQ14 of the index's features — for every index in order,
// then random jumps. Between them the spaces sum every count of rows
// modulo four, and more than four. No tolerance: a bound int16 view serves these values in
// place of the engine's.
func TestIndexScorerMatchesBatch(t *testing.T) {
	for _, ec := range engineCases(t) {
		q := quantize16(t, ec.e)
		rng := rand.New(rand.NewSource(83))
		cases := []struct {
			name string
			sp   sweepSpace
		}{
			{"sweep-space", newSweepSpace(rng, q.InputDim())},
			{"one-position", splitSpace(rng, q.InputDim(), 1)},
			{"no-tail", splitSpace(rng, q.InputDim(), q.InputDim())},
		}
		for _, ac := range mergeArityCases {
			if sp, ok := aritySpace(rng, q.InputDim(), ac.arities); ok {
				cases = append(cases, struct {
					name string
					sp   sweepSpace
				}{ac.name, sp})
			}
		}
		for _, c := range cases {
			sp := c.sp
			t.Run(ec.name+"/"+c.name, func(t *testing.T) {
				sw, err := q.NewIndexSweeper(sp.levels, sp.tail)
				if err != nil {
					t.Fatal(err)
				}
				sc := sw.NewScorer()
				scratch := q.NewQuantScratch(1)
				want := make([]float64, 1)
				var qxs []int16
				check := func(idx int64) {
					qxs = sp.encodeIndex(idx, qxs[:0])
					q.PredictBatchQ14(qxs, 1, scratch, want)
					if got := sc.Score(idx); math.Float64bits(got) != math.Float64bits(want[0]) {
						t.Fatalf("index %d: Score %v != PredictBatchQ14 %v", idx, got, want[0])
					}
				}
				for idx := int64(0); idx < sp.size; idx++ {
					check(idx)
				}
				for range 200 {
					check(rng.Int63n(sp.size))
				}
			})
		}
	}
}

// TestIndexScorerZeroAlloc pins that Score allocates nothing, on scorers
// of a fresh sweeper and of one that has swept: a served prediction pays
// it once per configuration.
func TestIndexScorerZeroAlloc(t *testing.T) {
	for _, ec := range engineCases(t) {
		q := quantize16(t, ec.e)
		rng := rand.New(rand.NewSource(5))
		sp := newSweepSpace(rng, q.InputDim())
		sw, err := q.NewIndexSweeper(sp.levels, sp.tail)
		if err != nil {
			t.Fatal(err)
		}
		fresh := sw.NewScorer()
		sw.Bounds(0, int(sp.size), make([]float64, sp.size), make([]float64, sp.size))
		swept := sw.NewScorer()
		for _, c := range []struct {
			name string
			sc   *IndexScorer
		}{{"fresh", fresh}, {"swept", swept}} {
			pass := func() {
				for idx := sp.size - 1; idx >= 0; idx -= 3 {
					c.sc.Score(idx)
				}
			}
			if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
				t.Errorf("%s/%s %s: Score allocated %.1f times per pass", ec.name, EngineInt16, c.name, allocs)
			}
		}
	}
}

// TestSweeperRejects pins NewIndexSweeper's validation: dimension
// mismatches and degenerate spaces fail loudly at construction instead
// of silently mis-indexing weights mid-sweep.
func TestSweeperRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := &Ensemble{nets: []*Network{MustNew(rng, []int{4, 6, 1}, Sigmoid, Linear)}}
	lv := []int16{0, qOne / 2}
	q := quantize16(t, e)
	for _, tc := range []struct {
		name   string
		levels [][]int16
		tail   []int16
		want   string
	}{
		{"no-positions", nil, make([]int16, 4), "at least one position"},
		{"width-mismatch", [][]int16{lv, lv}, []int16{0}, "input width"},
		{"empty-level", [][]int16{lv, {}, lv, lv}, nil, "no levels"},
	} {
		if _, err := q.NewIndexSweeper(tc.levels, tc.tail); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s/%s: error %v, want substring %q", EngineInt16, tc.name, err, tc.want)
		}
	}

	// Size overflow: 63 binary positions exceed the 2^62 guard.
	wide := &Ensemble{nets: []*Network{MustNew(rng, []int{63, 3, 1}, Sigmoid, Linear)}}
	levels := make([][]int16, 63)
	for i := range levels {
		levels[i] = lv
	}
	if _, err := quantize16(t, wide).NewIndexSweeper(levels, nil); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Errorf("overflow: error %v, want overflow rejection", err)
	}
}
