package ann

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzSweepOrder checks a sweeper built in a random sweep order against
// the declaration order, on FuzzSweepBound's kind of random ensembles
// over spaces of random arities (one level included):
//
//   - SpaceIndex and SweepIndex are inverse bijections, and sweep digit p
//     of a configuration is its space digit perm[p];
//   - Bounds at each sweep index is exactly PredictBatchBoundsQ14 of the
//     configuration at the mapped space index;
//   - the ordered screen's sweep bound is the declaration order's, its
//     bracket contains the float64 reference, Floor lower-bounds every lb
//     of each aligned subtree, and BoundsCeil reports every lb at or
//     below its ceiling exactly;
//   - the ordered screen's ScoreTables score every space index bit for
//     bit as a declaration-order screen's do.
func FuzzSweepOrder(f *testing.F) {
	f.Add(int64(1), 1.0, uint8(0x27))
	f.Add(int64(2), 32000.0, uint8(0x1b))
	f.Add(int64(3), 40.0, uint8(0x3f))
	f.Add(int64(4), 1e-5, uint8(0x13))
	f.Add(int64(5), 7.0, uint8(0x83))
	f.Fuzz(func(t *testing.T, seed int64, mag float64, shape uint8) {
		if !(mag > 0 && mag <= 32767) {
			t.Skip("weight magnitude outside what the int16 quantiser accepts")
		}
		rng := rand.New(rand.NewSource(seed))
		in := 1 + int(shape&3)
		hidden := 1 + int(shape>>2&7)
		sizes, acts := []int{in, hidden, 1}, []Activation{Sigmoid, Linear}
		if shape&0x80 != 0 {
			sizes, acts = []int{in, 1}, []Activation{Linear}
		}
		nets := make([]*Network, 1+int(shape>>5&3))
		for i := range nets {
			n := MustNew(rng, sizes, acts...)
			for _, w := range n.weights {
				for j := range w {
					w[j] = mag * (2*rng.Float64() - 1)
					if rng.Intn(8) == 0 {
						w[j] = math.Copysign(mag, w[j])
					}
				}
			}
			nets[i] = n
		}
		e := &Ensemble{nets: nets}
		q, err := QuantizeEnsemble(e)
		if err != nil {
			t.Skip(err)
		}
		tailLen := rng.Intn(in)
		levels, tail := floatSweepLevels(rng, in-tailLen, tailLen)
		P := len(levels)
		arity := make([]int64, P)
		size := int64(1)
		for p := range levels {
			levels[p] = levels[p][:1+rng.Intn(len(levels[p]))]
			arity[p] = int64(len(levels[p]))
			size *= arity[p]
		}
		perm := rng.Perm(P)
		order, err := NewSweepOrder(arity, perm)
		if err != nil {
			t.Fatal(err)
		}

		// digits decodes idx most-significant-first over the arities ar.
		digits := func(idx int64, ar []int64) []int64 {
			d := make([]int64, len(ar))
			for p := len(ar) - 1; p >= 0; p-- {
				d[p] = idx % ar[p]
				idx /= ar[p]
			}
			return d
		}
		sweepArity := order.Arity()
		for idx := int64(0); idx < size; idx++ {
			sp := order.SpaceIndex(idx)
			if order.SweepIndex(sp) != idx || order.SpaceIndex(order.SweepIndex(idx)) != idx {
				t.Fatalf("order %v: index %d does not round-trip (space %d)", perm, idx, sp)
			}
			sd, cd := digits(idx, sweepArity), digits(sp, arity)
			for p, c := range perm {
				if sd[p] != cd[c] {
					t.Fatalf("order %v: sweep index %d has digit %d at position %d, its space index %d has %d at %d",
						perm, idx, sd[p], p, sp, cd[c], c)
				}
			}
		}

		// features returns the float64 and Q14 features of space index idx.
		qlevels := make([][]int16, P)
		for p, lv := range levels {
			qlevels[p] = quantizeQ14All(lv)
		}
		qtail := quantizeQ14All(tail)
		features := func(idx int64) ([]float64, []int16) {
			x, qx := append(make([]float64, P), tail...), append(make([]int16, P), qtail...)
			for c, d := range digits(idx, arity) {
				x[c], qx[c] = levels[c][d], qlevels[c][d]
			}
			return x, qx
		}

		isw, err := q.newSweeper(qlevels, qtail, order)
		if err != nil {
			t.Fatal(err)
		}
		lb, ub := make([]float64, size), make([]float64, size)
		isw.Bounds(0, int(size), lb, ub)
		scratch := q.NewQuantScratch(1)
		blb, bub := make([]float64, 1), make([]float64, 1)
		for idx := int64(0); idx < size; idx++ {
			_, qx := features(order.SpaceIndex(idx))
			q.PredictBatchBoundsQ14(qx, 1, scratch, blb, bub)
			if math.Float64bits(lb[idx]) != math.Float64bits(blb[0]) || math.Float64bits(ub[idx]) != math.Float64bits(bub[0]) {
				t.Fatalf("order %v sweep index %d: Bounds [%v, %v] != batch [%v, %v]", perm, idx, lb[idx], ub[idx], blb[0], bub[0])
			}
		}

		sw, err := q.NewOrderedSweeper(e, levels, tail, order)
		if err != nil {
			t.Fatal(err)
		}
		declared, err := q.NewOrderedSweeper(e, levels, tail, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sw.bound != declared.bound {
			t.Fatalf("order %v: sweep bound %v, declaration order's %v", perm, sw.bound, declared.bound)
		}
		ref := sw.Fork()
		wantLb, wantUb := make([]float64, size), make([]float64, size)
		ref.Bounds(0, int(size), wantLb, wantUb)
		ps := e.NewScratch()
		for idx := int64(0); idx < size; idx++ {
			x, _ := features(order.SpaceIndex(idx))
			if r := e.Predict(x, ps); !(wantLb[idx] <= r && r <= wantUb[idx]) {
				t.Fatalf("order %v sweep index %d: reference %v outside [%v, %v]", perm, idx, r, wantLb[idx], wantUb[idx])
			}
		}
		floors := sw.Fork()
		for p, n := len(sweepArity)-1, int64(1); p >= 0; p-- {
			n *= sweepArity[p]
			for start := int64(0); start < size; start += n {
				floor, ok := floors.Floor(start, n)
				if !ok {
					t.Fatalf("order %v: no floor for a paper or linear topology", perm)
				}
				for idx := start; idx < start+n; idx++ {
					if floor > wantLb[idx] {
						t.Fatalf("order %v: Floor(%d, %d) = %v above sweep index %d's lb %v", perm, start, n, floor, idx, wantLb[idx])
					}
				}
			}
		}
		for range 3 {
			ceil := wantLb[rng.Int63n(size)]
			ceiled := sw.Fork()
			ceiled.BoundsCeil(0, int(size), lb, ub, ceil)
			for idx := int64(0); idx < size; idx++ {
				if math.IsInf(lb[idx], 1) {
					if !math.IsInf(ub[idx], 1) || wantLb[idx] <= ceil {
						t.Fatalf("order %v ceil %v sweep index %d: pruned but lb %v ≤ ceil", perm, ceil, idx, wantLb[idx])
					}
				} else if lb[idx] != wantLb[idx] || ub[idx] != wantUb[idx] {
					t.Fatalf("order %v ceil %v sweep index %d: [%v, %v] != Bounds [%v, %v]",
						perm, ceil, idx, lb[idx], ub[idx], wantLb[idx], wantUb[idx])
				}
			}
		}

		got, want := sw.ScoreTables(order).NewScorer(), declared.ScoreTables(nil).NewScorer()
		for idx := int64(0); idx < size; idx++ {
			if g, w := got.Score(idx), want.Score(idx); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("order %v space index %d: ordered screen scores %v, declaration order %v", perm, idx, g, w)
			}
		}
	})
}

// TestSweepOrderRejects pins the order's validation: a permutation of
// the wrong length, a repeated or out-of-range position, a position
// without levels, and a sweeper asked to walk an order built for other
// arities all fail at construction.
func TestSweepOrderRejects(t *testing.T) {
	arity := []int64{3, 2, 4}
	for _, tc := range []struct {
		name  string
		arity []int64
		perm  []int
	}{
		{"short", arity, []int{0, 1}},
		{"repeat", arity, []int{0, 1, 1}},
		{"out-of-range", arity, []int{0, 1, 3}},
		{"no-levels", []int64{3, 0, 4}, []int{2, 1, 0}},
	} {
		if _, err := NewSweepOrder(tc.arity, tc.perm); err == nil {
			t.Errorf("%s: NewSweepOrder(%v, %v) accepted", tc.name, tc.arity, tc.perm)
		}
	}
	rng := rand.New(rand.NewSource(3))
	e := &Ensemble{nets: []*Network{MustNew(rng, []int{3, 4, 1}, Sigmoid, Linear)}}
	levels, _ := floatSweepLevels(rng, 3, 0)
	for _, tc := range []struct {
		name  string
		arity []int64
		perm  []int
	}{
		{"other-arities", []int64{2, 3, 4}, []int{2, 1, 0}},
		{"fewer-positions", []int64{3, 2}, []int{1, 0}},
	} {
		order, err := NewSweepOrder(tc.arity, tc.perm)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := quantize16(t, e).NewOrderedSweeper(e, levels, nil, order); err == nil {
			t.Errorf("%s: a sweeper over arities %v walked an order for %v", tc.name, arity, tc.arity)
		}
	}
}
