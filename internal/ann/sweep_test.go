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
		t.Run(ec.name+"/"+q.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			sp := newSweepSpace(rng, q.InputDim())
			sw, err := q.NewIndexSweeper(sp.levels, sp.tail)
			if err != nil {
				t.Fatal(err)
			}
			if sw.Size() != sp.size {
				t.Fatalf("Size() = %d, want %d", sw.Size(), sp.size)
			}
			scratch := q.NewScratch(1)
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
		t.Run(ec.name+"/"+q.Name(), func(t *testing.T) {
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
		t.Run(ec.name+"/"+q.Name(), func(t *testing.T) {
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

// TestSweeperZeroAlloc pins that a sweeping Bounds pass allocates
// nothing: the sweeper exists to make full-space screening cheap, and a
// per-block allocation would show up a hundred thousand times per sweep.
func TestSweeperZeroAlloc(t *testing.T) {
	for _, ec := range engineCases(t) {
		q := quantize16(t, ec.e)
		rng := rand.New(rand.NewSource(3))
		sp := newSweepSpace(rng, q.InputDim())
		sw, err := q.NewIndexSweeper(sp.levels, sp.tail)
		if err != nil {
			t.Fatal(err)
		}
		n := 32
		if int64(n) > sp.size {
			n = int(sp.size)
		}
		lb := make([]float64, n)
		ub := make([]float64, n)
		if allocs := testing.AllocsPerRun(20, func() {
			sw.Bounds(0, n, lb, ub)
			if rest := sp.size - int64(n); rest > 0 {
				m := n
				if int64(m) > rest {
					m = int(rest)
				}
				sw.Bounds(int64(n), m, lb, ub)
			}
		}); allocs != 0 {
			t.Errorf("%s/%s: Bounds allocated %.1f times per sweep pass", ec.name, q.Name(), allocs)
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
			t.Errorf("%s/%s: error %v, want substring %q", q.Name(), tc.name, err, tc.want)
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
