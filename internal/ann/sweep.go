package ann

import (
	"fmt"
	"math"
)

// QuantSweeper is the int16 engine's full-space screening kernel, and
// the only one: every top-M sweep screens through it, whichever engine
// serves the view's batch predictions. It bounds every configuration of
// a dense odometer-indexed space in index order, maintaining the
// first-layer pre-activation accumulators *incrementally* instead of
// recomputing them per configuration. Its level tables also serve the
// int16 engine's predictions one configuration at a time, in any order
// (IndexScorer).
//
// The space is the cross product of P positions, position p taking
// arity_p discrete levels; index digits decode most-significant-first
// with the last position varying fastest. The positions are the
// sweeper's own, in its sweep order (SweepOrder): sweeper position p is
// the space's position perm[p], and every index Bounds, BoundsCeil and
// Floor take or report is a *sweep index*, numbered in that order. A
// sweeper from NewIndexSweeper walks the declaration order, so its sweep
// indices are the *space indices* of tuning.Space.At; the top-M screen
// walks the fewest-level positions slowest and maps what it keeps back
// to space indices. ScoreTables and IndexScorer always take space
// indices. Each level of each position contributes a fixed
// vector to every first-layer accumulator — w_j,p · x_p(level), at the
// member's own weight scale — so the sweeper keeps one prefix-sum row
// per position except the last:
//
//	prefix[p] = base + contrib[0][digit_0] + … + contrib[p][digit_p]
//
// The sweep is *cache-blocked* over the fastest digit: consecutive
// indices that differ only in the last position form a tile that is
// finished entirely out of L1. The tile's working set is the parent row
// prefix[P-2] (H accumulators), the last position's contribution block
// (arity_{P-1}·H values walked sequentially), and the shared 16 KiB
// sigmoid LUT; the last prefix row is never materialised — its add is
// fused into the finishing pass, which on the paper topology also fuses
// the sigmoid lookup and the output dot. That removes a store+load
// round trip of H·8 bytes per configuration, and a step to the next
// tile only recomputes the rows from the lowest changed digit down:
// amortised over a full sweep that is well under one vector add per
// configuration. Rows are rebuilt lazily: seek and bump only mark the
// rows below the changed digit stale, and row rebuilds them when first
// read, so a subtree skip or a unit floor (Floor) that never descends
// pays no adds for the rows it never reads. The trailing fixed features
// (a portable model's bound device tail) fold into base once at
// construction.
//
// This is only sound because the accumulators are integers: integer
// addition is exact and order-independent, so the incremental, fused
// state is bit-identical to a from-scratch forward pass — Bounds
// returns exactly what PredictBatchBoundsQ14 would for the same index's
// EncodeIndexQ14 features (pinned by TestSweeperMatchesBatch). A float
// engine cannot sweep incrementally without invalidating its error
// argument, which is why the fixed-point engine wins the full-space
// sweep. What is left per configuration is finishing it: every member's
// H sigmoid lookups and output dot.
//
// The same per-slot relaxation that lets BoundsCeil skip a subtree
// also floors one up front: Floor lower-bounds every configuration of an
// aligned subtree for the price of one finish, so the top-M sweep can
// order its units best-first and stop before walking the rest. Under a
// finite ceiling BoundsCeil also cuts each finish short: members are
// summed in order, and the finish stops as soon as the members summed
// so far plus floors for the rest prove the result above the ceiling.
// The floors are the member terms of the innermost enclosing subtree's
// relaxation, which the failing subtree check that led into it has
// already computed (see BoundsCeil).
//
// The bracket half-width is the engine's ErrorBound for a sweeper from
// NewIndexSweeper. NewOrderedSweeper instead proves one for the sweep's own
// inputs (sweepBound), the worst case over the space's levels rather
// than over any input in [QuantInputLo, QuantInputHi]. Per member, with
// the float64 weights w, b and the int16 tables wq, bq at scales k, k₂
// (see quant.go's error model):
//
//	E_j = |b_j − bq_j/2^(k+14)| + Σ_i max_v |w_ji·x_i(v) − wq_ji·xq_i(v)/2^(k+14)|
//	h_j = E_j/4 + 2^-(qLutBits+3) + 2^-15 + σ(qLutLo)
//	out = |b₂ − bq₂/2^(k₂+14)| + Σ_j (|w₂_j − wq₂_j/2^k₂| + |wq₂_j|/2^k₂ · h_j)
//
// and the bound is (1/K)·Σ out + 1e-9, capped at ErrorBound. A narrower
// bracket admits fewer survivors to the exact pass and proves more
// subtrees above the ceiling; it never excludes the reference value.
//
// A sweeper is single-goroutine state over an immutable
// QuantizedEnsemble; each sweep worker needs its own (Fork), and each
// predicting goroutine its own scorer (ScoreTables.NewScorer).
type QuantSweeper struct {
	q *QuantizedEnsemble
	// bound is the bracket half-width Bounds, BoundsCeil and Floor
	// widen by: the engine's ErrorBound, or a sweep bound (NewOrderedSweeper).
	bound float64
	// contrib[p][v*H+j] is level v of position p's contribution to slot
	// j's accumulator (at the owning member's layer-0 scale).
	contrib [][]int64
	// base[j] is slot j's bias plus the fixed-tail contribution.
	base []int64
	// prefix[p][j] is the running pre-activation after positions 0..p;
	// only positions 0..P-2 are materialised — the last position is fused
	// into the finishing pass. Rows from fresh on are stale (see row).
	prefix [][]int64
	fresh  int
	arity  []int64
	digits []int
	// actA/actB are single-sample buffers for members with more than one
	// hidden layer (the paper topology never needs them).
	actA, actB []int16
	size       int64
	// cur is the next index Bounds will produce when continuing
	// sequentially: digits describe cur and the prefix rows match its
	// leading digits. -1 before the first seek; size once exhausted.
	cur int64
	// invK is the precomputed ensemble-mean reciprocal — the same
	// multiply PredictBatchQ14 finishes with, so the last float op of
	// the finish matches the batch path bit for bit (dividing by K
	// instead would differ by an ulp whenever 1/K is inexact).
	invK float64
	// pickTail[p][j] is the positions-p..P-1 suffix relaxation behind
	// BoundsCeil's subtree skip: the per-slot contribution extreme that
	// minimises the finished output. Built lazily by initPrune; stays nil
	// for topologies whose finish is not per-slot monotone.
	pickTail [][]int64
	// subSize[p] is the configuration count of a subtree spanning
	// positions p..P-1.
	subSize []int64
	// H is the concatenated first-layer width across members; slot
	// ranges follow member order.
	H    int
	deep bool
	// pruneInit records that initPrune ran (pickTail may still be nil).
	pruneInit bool
	// terms[m] is member m's term in the latest finish (the value it adds
	// to the ensemble sum); noFloors is the all-zero floor vector of a
	// finish that is never cut.
	terms, noFloors []float64
	// floorRest is BoundsCeil's floor stack, built by initPrune: entry i
	// belongs to the subtree spanning positions floorLvl[i]..P-1 that
	// encloses the walk, and floorRest[i][m] sums members m+1..K-1's terms
	// of that subtree's relaxation, each of which floors that member's term
	// everywhere in the subtree. Entry 0 is the whole space; an entry is
	// dropped as soon as a digit above its level changes, and floorTop is
	// the innermost live entry.
	floorRest [][]float64
	floorLvl  []int
	floorTop  int
	// termMax bounds Σ_m |member m's term| over every accumulator the
	// sweep can reach: the scale of the cut's rounding slack (cutFor).
	termMax float64
}

// NewIndexSweeper builds a sweeper for a space whose position p has
// len(levels[p]) levels with the given Q14 feature values, followed by
// the fixed Q14 tail features (nil for parameter-only models). The
// feature layout must match the ensemble's input width: positions first,
// tail after — the layout of tuning.FeatureSchema.EncodeIndexQ14. The
// sweeper walks the positions in declaration order: its sweep indices
// are space indices.
func (q *QuantizedEnsemble) NewIndexSweeper(levels [][]int16, tail []int16) (*QuantSweeper, error) {
	return q.newSweeper(levels, tail, nil)
}

// newSweeper builds a sweeper that walks the space's positions in order
// (nil walks them in declaration order): its position p is the space's
// position order.perm[p], so contrib[p] comes from that input column.
func (q *QuantizedEnsemble) newSweeper(levels [][]int16, tail []int16, order *SweepOrder) (*QuantSweeper, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("ann: sweeper needs at least one position")
	}
	if got := len(levels) + len(tail); got != q.inDim {
		return nil, fmt.Errorf("ann: sweeper features %d (positions %d + tail %d) != engine input width %d",
			got, len(levels), len(tail), q.inDim)
	}
	P := len(levels)
	col := make([]int, P) // col[p]: the input column sweep position p reads
	for p := range col {
		col[p] = p
	}
	if order != nil {
		if len(order.perm) != P {
			return nil, fmt.Errorf("ann: sweep order over %d positions, space has %d", len(order.perm), P)
		}
		copy(col, order.perm)
	}
	s := &QuantSweeper{
		q:        q,
		arity:    make([]int64, P),
		size:     1,
		digits:   make([]int, P),
		invK:     1 / float64(len(q.members)),
		cur:      -1,
		bound:    q.bound,
		terms:    make([]float64, len(q.members)),
		noFloors: make([]float64, len(q.members)),
	}
	for p, c := range col {
		lv := levels[c]
		if len(lv) == 0 {
			return nil, fmt.Errorf("ann: sweeper position %d has no levels", c)
		}
		s.arity[p] = int64(len(lv))
		if order != nil && order.arity[p] != s.arity[p] {
			return nil, fmt.Errorf("ann: sweep order gives position %d %d levels, space has %d", c, order.arity[p], s.arity[p])
		}
		if s.size > (1<<62)/s.arity[p] {
			return nil, fmt.Errorf("ann: sweeper space size overflows")
		}
		s.size *= s.arity[p]
	}
	for _, layers := range q.members {
		s.H += layers[0].out
		if len(layers) > 2 {
			s.deep = true
		}
	}
	s.base = make([]int64, s.H)
	s.contrib = make([][]int64, P)
	for p := range s.contrib {
		s.contrib[p] = make([]int64, int(s.arity[p])*s.H)
	}
	s.prefix = make([][]int64, P-1)
	for p := range s.prefix {
		s.prefix[p] = make([]int64, s.H)
	}
	off := 0
	for _, layers := range q.members {
		l0 := layers[0]
		for j := 0; j < l0.out; j++ {
			acc := l0.b[j]
			for t, tv := range tail {
				acc += int64(l0.w[j*l0.in+P+t]) * int64(tv)
			}
			s.base[off+j] = acc
			for p, c := range col {
				w := int64(l0.w[j*l0.in+c])
				for v, lv := range levels[c] {
					s.contrib[p][v*s.H+off+j] = w * int64(lv)
				}
			}
		}
		off += l0.out
	}
	if s.deep {
		s.actA = make([]int16, q.maxWidth)
		s.actB = make([]int16, q.maxWidth)
	}
	return s, nil
}

// NewOrderedSweeper builds the sweeper the top-M sweep screens through,
// walking the space's positions in order (nil: declaration order): the
// space's positions take the float64 feature levels levels[p], in
// declaration order, followed by the fixed float64 tail features, each
// quantised exactly as QuantizeQ14 (the rounding of tuning.Encoder's Q14
// tables). Its bracket is the sweep bound proven from these inputs and
// ref, the float64 ensemble the engine was quantised from and the exact
// pass scores with (see sweepBound), column by column in declaration
// order, so it does not depend on the order; it is never wider than
// ErrorBound.
func (q *QuantizedEnsemble) NewOrderedSweeper(ref *Ensemble, levels [][]float64, tail []float64, order *SweepOrder) (*QuantSweeper, error) {
	qlevels := make([][]int16, len(levels))
	for p, lv := range levels {
		qlevels[p] = quantizeQ14All(lv)
	}
	qtail := quantizeQ14All(tail)
	s, err := q.newSweeper(qlevels, qtail, order)
	if err != nil {
		return nil, err
	}
	s.bound = q.sweepBound(ref,
		append(levels[:len(levels):len(levels)], oneLevelEach(tail)...),
		append(qlevels, oneLevelEach(qtail)...))
	return s, nil
}

// quantizeQ14All returns QuantizeQ14 of every value in xs.
func quantizeQ14All(xs []float64) []int16 {
	out := make([]int16, len(xs))
	for i, x := range xs {
		out[i] = QuantizeQ14(x)
	}
	return out
}

// oneLevelEach turns each tail feature into a position with one level.
func oneLevelEach[T any](tail []T) [][]T {
	out := make([][]T, len(tail))
	for t := range tail {
		out[t] = tail[t : t+1]
	}
	return out
}

// sweepBound proves the bracket half-width of a sweep whose input i
// takes the float64 values levels[i] and, in the int16 engine, the Q14
// values qlevels[i] (tail features are inputs with one level). It
// evaluates quant.go's sweep-bound recurrence member by member on the
// engine's actual int16 tables and ref's float64 weights. A member
// deeper than the paper topology falls back to the engine bound, and so
// does a ref whose shape does not match the engine's.
func (q *QuantizedEnsemble) sweepBound(ref *Ensemble, levels [][]float64, qlevels [][]int16) float64 {
	if ref == nil || len(ref.nets) != len(q.members) {
		return q.bound
	}
	// Per-hidden-unit activation slack: the LUT's half-cell step through
	// Lipschitz ¼, the Q14 rounding of the stored entry and the clamp tail.
	actSlack := math.Ldexp(1, -(qLutBits+3)) + math.Ldexp(1, -(qFrac+1)) + sigTail
	total := 0.0
	for mi, layers := range q.members {
		n := ref.nets[mi]
		paper := len(layers) == 2 && !layers[0].linear && layers[1].linear
		linear := len(layers) == 1 && layers[0].linear
		if !(paper || linear) || len(n.weights) != len(layers) {
			return q.bound
		}
		for l, ql := range layers {
			act := Sigmoid
			if ql.linear {
				act = Linear
			}
			if n.sizes[l] != ql.in || n.sizes[l+1] != ql.out || n.acts[l] != act {
				return q.bound
			}
		}
		l0 := layers[0]
		// preErr is slot j's pre-activation error E_j: bias quantisation
		// plus, per input, the worst level's product error.
		w0 := n.weights[0]
		preErr := func(j int) float64 {
			row := w0[j*(l0.in+1) : (j+1)*(l0.in+1)]
			e := math.Abs(row[l0.in] - float64(l0.b[j])*l0.invOut)
			for i, lv := range levels {
				w, wq := row[i], float64(l0.w[j*l0.in+i])*l0.invOut
				worst := 0.0
				for v, x := range lv {
					worst = max(worst, math.Abs(w*x-wq*float64(qlevels[i][v])))
				}
				e += worst
			}
			return e
		}
		if l0.linear {
			total += preErr(0)
			continue
		}
		lOut, w1 := layers[1], n.weights[1]
		// The output weight's own scale 2^-k₂ is its accumulator scale
		// times 2^14 (the activations are Q14).
		wScale := lOut.invOut * qOne
		out := math.Abs(w1[l0.out] - float64(lOut.b[0])*lOut.invOut)
		for j := 0; j < l0.out; j++ {
			wq := float64(lOut.w[j]) * wScale
			out += math.Abs(w1[j]-wq) + math.Abs(wq)*(preErr(j)/4+actSlack)
		}
		total += out
	}
	return min(total/float64(len(q.members))+1e-9, q.bound)
}

// Fork returns a sweeper over the same space and bracket that shares
// s's immutable tables and owns fresh walk state, so one sweep's
// workers each walk their own without rebuilding the tables. Fork only
// reads s: several goroutines may fork one sweeper nothing walks.
func (s *QuantSweeper) Fork() *QuantSweeper {
	f := *s
	f.prefix = make([][]int64, len(s.prefix))
	for p := range f.prefix {
		f.prefix[p] = make([]int64, s.H)
	}
	f.ownFinishBuffers()
	if s.floorRest != nil {
		f.floorRest, f.floorLvl = newFloorStack(len(s.digits), len(s.terms))
		copy(f.floorRest[0], s.floorRest[0])
	}
	f.fresh, f.cur, f.floorTop = 0, -1, 0
	return &f
}

// ownFinishBuffers gives a copy of a sweeper fresh buffers for what
// finish writes: digits, terms and the deep members' activations.
func (s *QuantSweeper) ownFinishBuffers() {
	s.digits = make([]int, len(s.digits))
	s.terms = make([]float64, len(s.terms))
	if s.deep {
		s.actA = make([]int16, s.q.maxWidth)
		s.actB = make([]int16, s.q.maxWidth)
	}
}

// IndexScorer scores single configurations of a sweeper's space in any
// order, straight from its level tables: one row sum per configuration
// in place of the int16 engine's first-layer dot products. Score(idx) is
// bit-identical to PredictBatchQ14 on idx's features, for the reasons
// Bounds is (integer sums are exact, finish mirrors the batch path), so a
// bound int16 view serves its predictions through one (see
// core.Model.NewBatchScratch).
//
// A scorer is single-goroutine state; it only reads its ScoreTables and
// their sweeper, so any number of goroutines may each take one of
// tables whose sweeper nothing walks.
type IndexScorer struct {
	// s is a copy of the sweeper that shares its read-only tables and
	// owns what finish writes (ownFinishBuffers). Score never walks, so
	// the copy's walk state (prefix rows, floor stack) is left shared and
	// untouched.
	s      QuantSweeper
	groups []rowGroup
	// acc is the first-layer accumulator row the finish starts from; rows
	// are the rows it sums: base first when no merged table holds it, then
	// one row per group.
	acc  []int64
	rows [][]int64
}

// ScoreTables are the merged level rows IndexScorers sum. Each run of
// consecutive positions among 0..P-2 whose arity product is at most
// maxMergedLevels becomes one group: a table with one row per
// combination of the run's levels, each row the sum of those levels'
// rows. A group of one position is that position's own level rows in
// the sweeper. base is folded into the first table that merges two or
// more positions, so a space whose runs all merge sums one row per
// group and nothing else. The last position stays out of every group:
// finish adds it. Integer sums are exact and order-independent, so the
// merged sum is bit-identical to summing the level rows one by one.
//
// Tables are read-only once built: build them once per sweeper and
// share them among the scorers of any number of goroutines.
type ScoreTables struct {
	s      *QuantSweeper
	groups []rowGroup
	// folded records that base is in one of the merged tables.
	folded bool
}

// rowGroup is a run of positions summed as one row: size is the run's
// arity product, rows[k*H:(k+1)*H] the row of the run's k-th level
// combination (digits most-significant-first, as in the index).
type rowGroup struct {
	size int64
	rows []int64
}

// maxMergedLevels caps a merged table's row count. A cap of 64 would
// also merge pairs of 8-level positions, but such tables are several
// times the size of the level tables they merge.
const maxMergedLevels = 16

// ScoreTables builds s's merged level rows (see ScoreTables) over space
// indices: order is the sweep order s was built with (nil for
// declaration order), and the tables hold s's level rows renumbered back
// to declaration order, so a scorer decodes, merges and finishes exactly
// as over a sweeper built in declaration order. It only reads s, and
// panics if order does not match s.
func (s *QuantSweeper) ScoreTables(order *SweepOrder) *ScoreTables {
	if order != nil {
		if len(order.perm) != len(s.arity) {
			panic("ann: sweep order does not match the sweeper")
		}
		space := *s // only scores: never walks, so its walk state stays unused
		space.arity = order.spaceArity
		space.contrib = make([][]int64, len(s.contrib))
		for p, c := range order.perm {
			if order.arity[p] != s.arity[p] {
				panic("ann: sweep order does not match the sweeper")
			}
			space.contrib[c] = s.contrib[p]
		}
		s = &space
	}
	H := s.H
	t := &ScoreTables{s: s}
	for lo := 0; lo < len(s.arity)-1; {
		hi, size := lo+1, s.arity[lo]
		for hi < len(s.arity)-1 && size*s.arity[hi] <= maxMergedLevels {
			size *= s.arity[hi]
			hi++
		}
		g := rowGroup{size: size, rows: s.contrib[lo]}
		if hi-lo > 1 {
			g.rows = make([]int64, int(size)*H)
			for k := range size {
				row := g.rows[int(k)*H : int(k+1)*H]
				if !t.folded {
					copy(row, s.base)
				}
				rem := k
				for p := hi - 1; p >= lo; p-- {
					d := rem % s.arity[p]
					rem /= s.arity[p]
					for j, c := range s.contrib[p][int(d)*H : int(d+1)*H] {
						row[j] += c
					}
				}
			}
			t.folded = true
		}
		t.groups = append(t.groups, g)
		lo = hi
	}
	return t
}

// NewScorer returns a scorer over t.
func (t *ScoreTables) NewScorer() *IndexScorer {
	s := t.s
	sc := &IndexScorer{s: *s, groups: t.groups, acc: make([]int64, s.H)}
	if !t.folded {
		sc.rows = append(sc.rows, s.base)
	}
	sc.rows = append(sc.rows, make([][]int64, len(t.groups))...)
	sc.s.ownFinishBuffers()
	return sc
}

// Score returns the raw ensemble output of the configuration at index
// idx: take each group's row from idx's digits, sum them (sumRows), and
// finish against the last position's row. Panics if idx is outside the
// space, matching EncodeIndex.
func (sc *IndexScorer) Score(idx int64) float64 {
	s := &sc.s
	if idx < 0 || idx >= s.size {
		panic("ann: scorer index outside the space")
	}
	H := s.H
	last := s.arity[len(s.arity)-1]
	d := idx % last
	rem := idx / last
	rows := sc.rows[len(sc.rows)-len(sc.groups):] // after base, if not folded
	for g := len(sc.groups) - 1; g >= 0; g-- {
		grp := &sc.groups[g]
		k := rem % grp.size
		rem /= grp.size
		rows[g] = grp.rows[k*int64(H) : (k+1)*int64(H)]
	}
	acc := sc.rows[0]
	if len(sc.rows) > 1 {
		acc = sc.acc
		sumRows(acc, sc.rows[0], sc.rows[1:])
	}
	return s.finish(acc, s.contrib[len(s.arity)-1][d*int64(H):(d+1)*int64(H)], s.noFloors, math.Inf(1))
}

// sumRows sets dst = base + Σ rows, element-wise, for one or more rows.
// The first pass adds the leading one to four rows to base, so that
// every later pass adds exactly four rows at once: each element is
// loaded and stored once per four rows, and no loop over the rows runs
// inside the loop over the elements. Reslicing every row to len(dst)
// lets the compiler drop the loops' bounds checks.
func sumRows(dst, base []int64, rows [][]int64) {
	n := len(dst)
	base = base[:n]
	k := (len(rows)+3)%4 + 1
	switch k {
	case 1:
		a := rows[0][:n]
		for j := range dst {
			dst[j] = base[j] + a[j]
		}
	case 2:
		a, b := rows[0][:n], rows[1][:n]
		for j := range dst {
			dst[j] = base[j] + a[j] + b[j]
		}
	case 3:
		a, b, c := rows[0][:n], rows[1][:n], rows[2][:n]
		for j := range dst {
			dst[j] = base[j] + a[j] + b[j] + c[j]
		}
	case 4:
		a, b, c, d := rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n]
		for j := range dst {
			dst[j] = base[j] + a[j] + b[j] + c[j] + d[j]
		}
	}
	for rows = rows[k:]; len(rows) > 0; rows = rows[4:] {
		a, b, c, d := rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n]
		for j := range dst {
			dst[j] += a[j] + b[j] + c[j] + d[j]
		}
	}
}

// newFloorStack allocates a floor stack for P positions and K members:
// the whole space, then at most one subtree per level.
func newFloorStack(P, K int) (rest [][]float64, lvl []int) {
	rest = make([][]float64, P+1)
	for i := range rest {
		rest[i] = make([]float64, K)
	}
	return rest, make([]int, P+1)
}

// Size returns the swept space's configuration count.
func (s *QuantSweeper) Size() int64 { return s.size }

// seek positions the sweeper so the next produced index is idx: decode
// the digits and mark every prefix row stale.
func (s *QuantSweeper) seek(idx int64) {
	rem := idx
	for p := len(s.digits) - 1; p >= 0; p-- {
		s.digits[p] = int(rem % s.arity[p])
		rem /= s.arity[p]
	}
	s.fresh = 0
	s.floorTop = 0
	s.cur = idx
}

// carry rolls the odometer past an exhausted last digit. The caller
// guarantees at least one more index exists.
func (s *QuantSweeper) carry() {
	s.digits[len(s.digits)-1] = 0
	s.bump(len(s.digits) - 2)
}

// bump advances the digit at position p by one, propagating carries
// towards position 0, marks the prefix rows from the changed position
// down stale and drops the floors of the subtrees the walk has left.
// The caller guarantees the odometer has room.
func (s *QuantSweeper) bump(p int) {
	for int64(s.digits[p]+1) == s.arity[p] {
		s.digits[p] = 0
		p--
	}
	s.digits[p]++
	s.fresh = min(s.fresh, p)
	for s.floorTop > 0 && s.floorLvl[s.floorTop] > p {
		s.floorTop--
	}
}

// row returns prefix[p], first rebuilding the stale rows up to it:
// prefix[r] = prefix[r-1] + contrib[r][digit_r], with base before row 0.
func (s *QuantSweeper) row(p int) []int64 {
	for ; s.fresh <= p; s.fresh++ {
		r := s.fresh
		src := s.base
		if r > 0 {
			src = s.prefix[r-1]
		}
		c := s.contrib[r][s.digits[r]*s.H : (s.digits[r]+1)*s.H]
		dst := s.prefix[r]
		_ = dst[len(src)-1]
		for j, v := range src {
			dst[j] = v + c[j]
		}
	}
	return s.prefix[p]
}

// rowAbove returns the accumulator row a subtree spanning positions
// p..P-1 starts from: the prefix through position p-1, or base for p 0.
func (s *QuantSweeper) rowAbove(p int) []int64 {
	if p == 0 {
		return s.base
	}
	return s.row(p - 1)
}

// finish computes one configuration's raw ensemble output from the
// tile's parent row and the last position's contribution slice, fusing
// the final accumulator add with sigmoid lookups, per-member output
// layers and the ensemble mean. The integer adds are exact and the
// float accumulation order mirrors PredictBatchQ14 exactly, so the
// result is bit-identical to the batch path. Each member's term is left
// in s.terms.
//
// The finish is cut short, returning +Inf, as soon as the members summed
// so far plus rest[m] — a sum of floors on the terms of members m+1..K-1
// — reach cut (see cutFor): the output is then provably too high to
// matter. A +Inf cut never cuts, which is how Bounds and Floor finish.
func (s *QuantSweeper) finish(parent, c []int64, rest []float64, cut float64) float64 {
	lut := (*[qLutSize]int16)(s.q.lut)
	terms := s.terms[:len(s.q.members)]
	rest = rest[:len(terms)]
	sum := 0.0
	off := 0
	for m, layers := range s.q.members {
		l0 := &layers[0]
		var t float64
		switch {
		case l0.linear:
			// Single-layer member: parent+contrib is the linear output's
			// accumulator (bias folded into base), so finishing is one add
			// and one scale multiply.
			t = float64(parent[off]+c[off]) * l0.invOut
		case len(layers) == 2 && layers[1].linear:
			// Paper topology: fuse the last accumulator add, shift, lookup
			// and the output dot. The output dot accumulates in the same
			// 4-chain order as dotQ so the integer value — and therefore the
			// float conversion — is identical (integer addition is
			// associative). The loop condition restates every length so the
			// compiler drops the bounds checks from the body, and the no-op
			// mask (shifts stay far below 64) spares each shift its
			// out-of-range fix-up.
			lOut := &layers[1]
			shift := l0.shift & 63
			w := lOut.w[:l0.out]
			pr := parent[off : off+len(w)]
			cr := c[off : off+len(w)]
			var a0, a1, a2, a3 int64
			for len(w) >= 4 && len(pr) >= 4 && len(cr) >= 4 {
				a0 += int64(w[0]) * int64(lut[lutCell(pr[0]+cr[0], shift)])
				a1 += int64(w[1]) * int64(lut[lutCell(pr[1]+cr[1], shift)])
				a2 += int64(w[2]) * int64(lut[lutCell(pr[2]+cr[2], shift)])
				a3 += int64(w[3]) * int64(lut[lutCell(pr[3]+cr[3], shift)])
				w, pr, cr = w[4:], pr[4:], cr[4:]
			}
			for j := range w {
				a0 += int64(w[j]) * int64(lut[lutCell(pr[j]+cr[j], shift)])
			}
			t = float64(lOut.b[0]+a0+a1+a2+a3) * lOut.invOut
		default:
			t = s.deepTerm(layers, parent[off:], c[off:])
		}
		terms[m] = t
		sum += t
		if sum+rest[m] >= cut {
			return math.Inf(1)
		}
		off += l0.out
	}
	return sum * s.invK
}

// deepTerm finishes a member deeper than the paper topology: it
// materialises the first-layer activations, then runs the remaining
// layers single-sample through the shared cell arithmetic.
func (s *QuantSweeper) deepTerm(layers []qLayer, parent, c []int64) float64 {
	lut := (*[qLutSize]int16)(s.q.lut)
	l0 := &layers[0]
	cur := s.actA[:l0.out]
	for j := range cur {
		cur[j] = lut[lutCell(parent[j]+c[j], l0.shift)]
	}
	nxt := s.actB
	for li := 1; li < len(layers); li++ {
		l := &layers[li]
		if l.linear {
			return float64(l.b[0]+dotQ(l.w[:l.in], cur)) * l.invOut
		}
		row := nxt[:l.out]
		for j := 0; j < l.out; j++ {
			a := l.b[j] + dotQ(l.w[j*l.in:(j+1)*l.in], cur)
			row[j] = lut[lutCell(a, l.shift)]
		}
		cur, nxt = row, cur[:cap(cur)]
	}
	return 0
}

// lutCell maps an accumulator onto the sigmoid grid, clamped: the shared
// cell arithmetic of forwardMember and the sweeper. The clamp is
// branch-free, and its result always indexes a [qLutSize] table.
func lutCell(acc int64, shift uint) int {
	return min(max(int(acc>>shift)+qLutSize/2, 0), qLutSize-1)
}

// Bounds writes conservative raw-output brackets for the n sequential
// configurations starting at index start: lb[i] ≤ reference(start+i) ≤
// ub[i], exactly as PredictBatchBoundsQ14 would bound them. Sequential
// calls continue the incremental walk tile by tile; a non-contiguous
// start pays one full re-seek (P−1 vector adds) and continues from
// there. Panics if the range leaves the space, matching EncodeIndex.
func (s *QuantSweeper) Bounds(start int64, n int, lb, ub []float64) {
	if start < 0 || n < 0 || start+int64(n) > s.size {
		panic("ann: sweeper Bounds range outside the space")
	}
	if n == 0 {
		return
	}
	if start != s.cur {
		s.seek(start)
	}
	bound := s.bound
	P := len(s.digits)
	lastAr := int(s.arity[P-1])
	lastContrib := s.contrib[P-1]
	i := 0
	for i < n {
		parent := s.rowAbove(P - 1) // shared by the whole tile
		v := s.digits[P-1]
		run := lastAr - v
		if run > n-i {
			run = n - i
		}
		for r := 0; r < run; r++ {
			val := s.finish(parent, lastContrib[(v+r)*s.H:(v+r+1)*s.H], s.noFloors, math.Inf(1))
			lb[i] = val - bound
			ub[i] = val + bound
			i++
		}
		s.cur += int64(run)
		if v+run == lastAr && s.cur < s.size {
			s.carry()
		} else {
			// Tile interrupted mid-run by the caller's block boundary (or
			// the space is exhausted): remember where to resume.
			s.digits[P-1] = v + run
		}
	}
}

// initPrune prepares BoundsCeil's subtree-skip tables: for every suffix
// of positions p..P-1, the per-slot contribution extreme that minimises
// the finished output when substituted for the real digits. Pruning is
// only sound for topologies where each slot's influence on the finish is
// monotone — a sigmoid hidden layer feeding a linear output (the paper
// topology) or a purely linear member. The sigmoid LUT is monotone
// non-decreasing and lutCell is monotone in the accumulator, so slot j's
// term moves with its accumulator exactly when the output-path gain
// (output weight times output scale) is non-negative; the minimising
// relaxation takes the minimum contribution there and the maximum
// otherwise. Deeper members compose non-monotonically: pickTail stays
// nil and BoundsCeil degrades to Bounds.
//
// Each member's term is monotone in its own slots alone, so each term
// of a subtree's relaxation floors that member's term everywhere in the
// subtree; the whole space's relaxation terms are the bottom entry of
// the floor stack. initPrune also bounds the terms' magnitudes (termMax)
// for cutFor's rounding slack.
func (s *QuantSweeper) initPrune() {
	s.pruneInit = true
	wantMin := make([]bool, s.H)
	termMax := 0.0
	off := 0
	for _, layers := range s.q.members {
		l0 := layers[0]
		switch {
		case l0.linear:
			for j := 0; j < l0.out; j++ {
				wantMin[off+j] = l0.invOut >= 0
			}
			// Every reachable accumulator is base plus one level of each
			// position.
			acc := math.Abs(float64(s.base[off]))
			for p, c := range s.contrib {
				most := 0.0
				for v := 0; v < int(s.arity[p]); v++ {
					most = max(most, math.Abs(float64(c[v*s.H+off])))
				}
				acc += most
			}
			termMax += acc * math.Abs(l0.invOut)
		case len(layers) == 2 && layers[1].linear:
			lOut := layers[1]
			acc := math.Abs(float64(lOut.b[0]))
			for j := 0; j < l0.out; j++ {
				wantMin[off+j] = (lOut.invOut >= 0) == (lOut.w[j] >= 0)
				acc += math.Abs(float64(lOut.w[j])) * qOne // LUT entries lie in [0, qOne]
			}
			termMax += acc * math.Abs(lOut.invOut)
		default:
			return
		}
		off += l0.out
	}
	P := len(s.arity)
	s.subSize = make([]int64, P)
	pickTail := make([][]int64, P)
	sz := int64(1)
	for p := P - 1; p >= 0; p-- {
		sz *= s.arity[p]
		s.subSize[p] = sz
		pick := make([]int64, s.H)
		for j := 0; j < s.H; j++ {
			ext := s.contrib[p][j]
			for v := 1; v < int(s.arity[p]); v++ {
				c := s.contrib[p][v*s.H+j]
				if (wantMin[j] && c < ext) || (!wantMin[j] && c > ext) {
					ext = c
				}
			}
			pick[j] = ext
			if p < P-1 {
				pick[j] += pickTail[p+1][j]
			}
		}
		pickTail[p] = pick
	}
	s.pickTail = pickTail
	s.termMax = termMax
	s.floorRest, s.floorLvl = newFloorStack(P, len(s.terms))
	s.finish(s.base, pickTail[0], s.noFloors, math.Inf(1))
	s.floorTop = -1
	s.pushFloor(0)
}

// pushFloor makes the subtree spanning positions p..P-1 around the walk
// the floor stack's innermost entry, from the member terms the finish of
// its relaxation left in s.terms. Their suffix sums are taken backwards
// in member order.
func (s *QuantSweeper) pushFloor(p int) {
	for s.floorTop > 0 && s.floorLvl[s.floorTop] >= p {
		s.floorTop--
	}
	s.floorTop++
	s.floorLvl[s.floorTop] = p
	rest := s.floorRest[s.floorTop]
	acc := 0.0
	for m := len(rest) - 1; m >= 0; m-- {
		rest[m] = acc
		acc += s.terms[m]
	}
}

// cutFor returns the ensemble sum at and above which finish may stop: a
// configuration whose member sum reaches it has a lower bound above
// ceil, +Inf when no such sum exists.
//
// Let T be finish's forward sum of the member terms, so that lb =
// float64(T·invK) − bound (the conversion rounds the product on its own,
// as finish's return does, so no fused multiply-add can differ); lb is
// non-decreasing in T, and g below is a sum whose lb exceeds ceil, so
// T ≥ g proves lb > ceil. After member m,
// with S the forward sum so far and f_k ≤ t_k the floors of the members
// still to come, rounding is monotone, so T ≥ F, F being the forward sum
// of S, f_{m+1}, …, f_{K-1}. finish does not compute F (that is K−m
// more adds per member) but D = S + rest[m], rest[m] being the suffix
// sum of the floors. F and D are two roundings of the same real sum
// S + Σ f_k, each within about K·2^-53·termMax of it, so they differ by
// at most (2K+4)·2^-53·termMax. The cut adds to g a slack of
// (8K+16)·2^-53·(termMax + |g|), which also covers its own rounding:
// D reaching the cut puts F, and so T, at or above g.
func (s *QuantSweeper) cutFor(ceil float64) float64 {
	K := float64(len(s.terms))
	g := (ceil + s.bound) * K
	for range 64 {
		if float64(g*s.invK)-s.bound > ceil {
			return g + (K+2)*0x1p-50*(s.termMax+math.Abs(g))
		}
		g = math.Nextafter(g, math.Inf(1))
	}
	return math.Inf(1)
}

// BoundsCeil is Bounds with a pruning ceiling: entries whose lower bound
// provably exceeds ceil may be reported as +Inf in both lb and ub
// instead of being finished. It walks the same odometer, but whenever the
// walk is aligned to a whole subtree (a zero suffix of digits) that fits
// the remaining window, it first finishes the subtree's suffix relaxation
// (initPrune): finish is monotone per slot, so that single value lower-
// bounds every configuration in the subtree, and when even it sits above
// the ceiling the whole subtree is skipped without touching its tiles.
// Failed checks descend one position and retry, down to the plain tile
// walk. A +Inf ceiling — or a topology initPrune refuses — degrades to
// Bounds exactly.
//
// Every finish here, subtree check or single configuration, is cut
// short once the members summed so far plus floors for the rest prove
// it above the ceiling (finish, cutFor), and a cut configuration is
// reported as +Inf. The floors come from the floor stack: a failed check
// ran to its last member, so its member terms floor every configuration
// below it, and they become the innermost entry until the walk leaves
// that subtree. A window that starts on a subtree boundary lets the
// walk check, and so floor, every tile it finishes. Which subtrees are
// skipped, and every finite entry, are exactly as without the cut.
func (s *QuantSweeper) BoundsCeil(start int64, n int, lb, ub []float64, ceil float64) {
	if !s.pruneInit {
		s.initPrune()
	}
	if s.pickTail == nil || math.IsInf(ceil, 1) {
		s.Bounds(start, n, lb, ub)
		return
	}
	if start < 0 || n < 0 || start+int64(n) > s.size {
		panic("ann: sweeper Bounds range outside the space")
	}
	if n == 0 {
		return
	}
	if start != s.cur {
		s.seek(start)
	}
	bound := s.bound
	cut := s.cutFor(ceil)
	P := len(s.digits)
	lastAr := int(s.arity[P-1])
	lastContrib := s.contrib[P-1]
	i := 0
	for i < n {
		if s.digits[P-1] == 0 {
			// Aligned to at least one whole tile: start at the widest
			// zero-suffix subtree that fits the window and descend until one
			// proves itself fully above the ceiling, or none does.
			p := P - 1
			for p > 0 && s.digits[p-1] == 0 && s.subSize[p-1] <= int64(n-i) {
				p--
			}
			pruned := false
			for ; p < P; p++ {
				if s.subSize[p] > int64(n-i) {
					continue
				}
				if s.finish(s.rowAbove(p), s.pickTail[p], s.floorRest[s.floorTop], cut)-bound > ceil {
					for k := int64(0); k < s.subSize[p]; k++ {
						lb[i] = math.Inf(1)
						ub[i] = math.Inf(1)
						i++
					}
					s.cur += s.subSize[p]
					if s.cur < s.size {
						s.bump(p - 1)
					}
					pruned = true
					break
				}
				s.pushFloor(p)
			}
			if pruned {
				continue
			}
		}
		parent := s.rowAbove(P - 1) // shared by the whole tile
		rest := s.floorRest[s.floorTop]
		v := s.digits[P-1]
		run := lastAr - v
		if run > n-i {
			run = n - i
		}
		for r := 0; r < run; r++ {
			val := s.finish(parent, lastContrib[(v+r)*s.H:(v+r+1)*s.H], rest, cut)
			lb[i] = val - bound
			ub[i] = val + bound
			i++
		}
		s.cur += int64(run)
		if v+run == lastAr && s.cur < s.size {
			s.carry()
		} else {
			s.digits[P-1] = v + run
		}
	}
}

// Floor returns a lower bound on every lb Bounds reports inside the
// aligned subtree [start, start+n): n must be the configuration count of
// a suffix of positions (a product of the last arities) and start a
// multiple of it. The value is the one BoundsCeil compares against its
// ceiling before skipping that subtree — its suffix relaxation finished
// from the subtree's prefix row, minus the bracket's bound — so a caller
// that compares a floor against the same ceiling skips exactly what
// BoundsCeil would. ok is false when the topology has no prune tables
// (initPrune refuses deeper members): there is no floor.
func (s *QuantSweeper) Floor(start, n int64) (floor float64, ok bool) {
	if !s.pruneInit {
		s.initPrune()
	}
	if s.pickTail == nil {
		return 0, false
	}
	p := 0
	for p < len(s.subSize) && s.subSize[p] != n {
		p++
	}
	if p == len(s.subSize) || start < 0 || start%n != 0 || start >= s.size {
		panic("ann: sweeper Floor range is not an aligned subtree")
	}
	if start != s.cur {
		s.seek(start)
	}
	return s.finish(s.rowAbove(p), s.pickTail[p], s.noFloors, math.Inf(1)) - s.bound, true
}
