package ann

import (
	"fmt"
	"math"
)

// QuantSweeper is the int16 engine's full-space screening kernel, and
// the only one: an int8 view screens through its int16 twin. It bounds
// every configuration of a dense odometer-indexed space in index order,
// maintaining the first-layer pre-activation accumulators
// *incrementally* instead of recomputing them per configuration.
//
// The space is the cross product of P positions, position p taking
// arity_p discrete levels; index digits decode most-significant-first
// with the last position varying fastest (the layout of
// tuning.Space.At). Each level of each position contributes a fixed
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
// configuration. The trailing fixed features (a portable model's bound
// device tail) fold into base once at construction.
//
// This is only sound because the accumulators are integers: integer
// addition is exact and order-independent, so the incremental, fused
// state is bit-identical to a from-scratch forward pass — Bounds
// returns exactly what PredictBatchBoundsQ14 would for the same index's
// EncodeIndexQ14 features (pinned by TestSweeperMatchesBatch). A float
// engine cannot sweep incrementally without invalidating its error
// argument, which is why the fixed-point engine wins the full-space
// sweep: the per-config cost drops to the sigmoid lookups and the
// output dot.
//
// A sweeper is single-goroutine state over an immutable
// QuantizedEnsemble; each sweep worker builds its own.
type QuantSweeper struct {
	q *QuantizedEnsemble
	// contrib[p][v*H+j] is level v of position p's contribution to slot
	// j's accumulator (at the owning member's layer-0 scale).
	contrib [][]int64
	// base[j] is slot j's bias plus the fixed-tail contribution.
	base []int64
	// prefix[p][j] is the running pre-activation after positions 0..p;
	// only positions 0..P-2 are materialised — the last position is fused
	// into the finishing pass.
	prefix [][]int64
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
}

// NewIndexSweeper builds a sweeper for a space whose position p has
// len(levels[p]) levels with the given Q14 feature values, followed by
// the fixed Q14 tail features (nil for parameter-only models). The
// feature layout must match the ensemble's input width: positions first,
// tail after — the layout of tuning.FeatureSchema.EncodeIndexQ14.
func (q *QuantizedEnsemble) NewIndexSweeper(levels [][]int16, tail []int16) (*QuantSweeper, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("ann: sweeper needs at least one position")
	}
	if got := len(levels) + len(tail); got != q.inDim {
		return nil, fmt.Errorf("ann: sweeper features %d (positions %d + tail %d) != engine input width %d",
			got, len(levels), len(tail), q.inDim)
	}
	P := len(levels)
	s := &QuantSweeper{
		q:      q,
		arity:  make([]int64, P),
		size:   1,
		digits: make([]int, P),
		invK:   1 / float64(len(q.members)),
		cur:    -1,
	}
	for p, lv := range levels {
		if len(lv) == 0 {
			return nil, fmt.Errorf("ann: sweeper position %d has no levels", p)
		}
		s.arity[p] = int64(len(lv))
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
			for p := 0; p < P; p++ {
				w := int64(l0.w[j*l0.in+p])
				for v, lv := range levels[p] {
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

// Size returns the swept space's configuration count.
func (s *QuantSweeper) Size() int64 { return s.size }

// seek positions the sweeper so the next produced index is idx: decode
// the digits, rebuild the materialised prefix rows.
func (s *QuantSweeper) seek(idx int64) {
	rem := idx
	for p := len(s.digits) - 1; p >= 0; p-- {
		s.digits[p] = int(rem % s.arity[p])
		rem /= s.arity[p]
	}
	for p := range s.prefix {
		s.addRow(p)
	}
	s.cur = idx
}

// carry rolls the odometer past an exhausted last digit and rebuilds
// the prefix rows from the lowest changed position down. The caller
// guarantees at least one more index exists.
func (s *QuantSweeper) carry() {
	s.digits[len(s.digits)-1] = 0
	s.bump(len(s.digits) - 2)
}

// bump advances the digit at position p by one, propagating carries
// towards position 0, and rebuilds the prefix rows from the changed
// position down. The caller guarantees the odometer has room.
func (s *QuantSweeper) bump(p int) {
	for int64(s.digits[p]+1) == s.arity[p] {
		s.digits[p] = 0
		p--
	}
	s.digits[p]++
	for ; p < len(s.prefix); p++ {
		s.addRow(p)
	}
}

// addRow recomputes prefix[p] = predecessor + contrib[p][digit_p].
func (s *QuantSweeper) addRow(p int) {
	src := s.base
	if p > 0 {
		src = s.prefix[p-1]
	}
	c := s.contrib[p][s.digits[p]*s.H : (s.digits[p]+1)*s.H]
	dst := s.prefix[p]
	_ = dst[len(src)-1]
	for j, v := range src {
		dst[j] = v + c[j]
	}
}

// parentRow returns the accumulator row shared by the current tile: the
// prefix through positions 0..P-2, or base when the space has a single
// position.
func (s *QuantSweeper) parentRow() []int64 {
	if len(s.prefix) == 0 {
		return s.base
	}
	return s.prefix[len(s.prefix)-1]
}

// finish computes one configuration's raw ensemble output from the
// tile's parent row and the last position's contribution slice, fusing
// the final accumulator add with sigmoid lookups, per-member output
// layers and the ensemble mean. The integer adds are exact and the
// float accumulation order mirrors PredictBatchQ14 exactly, so the
// result is bit-identical to the batch path.
func (s *QuantSweeper) finish(parent, c []int64) float64 {
	lut := s.q.lut
	sum := 0.0
	off := 0
	for _, layers := range s.q.members {
		l0 := layers[0]
		if l0.linear {
			// Single-layer member: parent+contrib is the linear output's
			// accumulator (bias folded into base), so finishing is one add
			// and one scale multiply.
			sum += float64(parent[off]+c[off]) * l0.invOut
			off += l0.out
			continue
		}
		if len(layers) == 2 && layers[1].linear {
			// Paper topology: fuse the last accumulator add, shift, lookup
			// and the output dot. The output dot accumulates in the same
			// 4-chain order as dotQ so the integer value — and therefore the
			// float conversion — is identical (integer addition is
			// associative).
			lOut := layers[1]
			w := lOut.w
			var a0, a1, a2, a3 int64
			j := 0
			for ; j+4 <= l0.out; j += 4 {
				a0 += int64(w[j]) * int64(lut[lutCell(parent[off+j]+c[off+j], l0.shift)])
				a1 += int64(w[j+1]) * int64(lut[lutCell(parent[off+j+1]+c[off+j+1], l0.shift)])
				a2 += int64(w[j+2]) * int64(lut[lutCell(parent[off+j+2]+c[off+j+2], l0.shift)])
				a3 += int64(w[j+3]) * int64(lut[lutCell(parent[off+j+3]+c[off+j+3], l0.shift)])
			}
			for ; j < l0.out; j++ {
				a0 += int64(w[j]) * int64(lut[lutCell(parent[off+j]+c[off+j], l0.shift)])
			}
			sum += float64(lOut.b[0]+a0+a1+a2+a3) * lOut.invOut
			off += l0.out
			continue
		}
		// Deeper members: materialise the first-layer activations, then
		// run the remaining layers single-sample through the shared cell
		// arithmetic.
		cur := s.actA[:l0.out]
		for j := 0; j < l0.out; j++ {
			cur[j] = lut[lutCell(parent[off+j]+c[off+j], l0.shift)]
		}
		nxt := s.actB
		for _, l := range layers[1:] {
			if l.linear {
				sum += float64(l.b[0]+dotQ(l.w[:l.in], cur)) * l.invOut
				break
			}
			row := nxt[:l.out]
			for j := 0; j < l.out; j++ {
				a := l.b[j] + dotQ(l.w[j*l.in:(j+1)*l.in], cur)
				row[j] = lut[lutCell(a, l.shift)]
			}
			cur, nxt = row, cur[:cap(cur)]
		}
		off += l0.out
	}
	return sum * s.invK
}

// lutCell maps an accumulator onto the sigmoid grid, clamped: the shared
// cell arithmetic of forwardMember and the sweeper.
func lutCell(acc int64, shift uint) int {
	cell := int(acc>>shift) + qLutSize/2
	if cell < 0 {
		return 0
	}
	if cell >= qLutSize {
		return qLutSize - 1
	}
	return cell
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
	bound := s.q.bound
	P := len(s.digits)
	lastAr := int(s.arity[P-1])
	lastContrib := s.contrib[P-1]
	i := 0
	for i < n {
		parent := s.parentRow()
		v := s.digits[P-1]
		run := lastAr - v
		if run > n-i {
			run = n - i
		}
		for r := 0; r < run; r++ {
			val := s.finish(parent, lastContrib[(v+r)*s.H:(v+r+1)*s.H])
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
func (s *QuantSweeper) initPrune() {
	s.pruneInit = true
	wantMin := make([]bool, s.H)
	off := 0
	for _, layers := range s.q.members {
		l0 := layers[0]
		switch {
		case l0.linear:
			for j := 0; j < l0.out; j++ {
				wantMin[off+j] = l0.invOut >= 0
			}
		case len(layers) == 2 && layers[1].linear:
			lOut := layers[1]
			for j := 0; j < l0.out; j++ {
				wantMin[off+j] = (lOut.invOut >= 0) == (lOut.w[j] >= 0)
			}
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
	bound := s.q.bound
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
				row := s.base
				if p > 0 {
					row = s.prefix[p-1]
				}
				if s.finish(row, s.pickTail[p])-bound > ceil {
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
			}
			if pruned {
				continue
			}
		}
		parent := s.parentRow()
		v := s.digits[P-1]
		run := lastAr - v
		if run > n-i {
			run = n - i
		}
		for r := 0; r < run; r++ {
			val := s.finish(parent, lastContrib[(v+r)*s.H:(v+r+1)*s.H])
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
