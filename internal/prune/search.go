package prune

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/vecmath"
)

// Stats counts the work one or more TopM calls did and saved. Counters
// accumulate across calls; TakeStats reads and resets them.
type Stats struct {
	// CellsPruned counts IVF cells discarded without visiting their members:
	// their score upper bound could not beat the running top-M frontier (or,
	// in approx mode, they fell beyond the probe budget).
	CellsPruned int
	// PrescreenRows counts entity rows evaluated by the int8 filter inside
	// visited cells while the frontier was full — each row the filter
	// rejects skips an exact block rescore.
	PrescreenRows int
	// ExactRows counts entity rows scored by the exact float kernels
	// (aligned 4-row blocks, so shortlist neighbors are included).
	ExactRows int
	// CellsVisited counts cells whose members were swept.
	CellsVisited int
}

// Searcher runs pruned top-M corruption sweeps against one Index. It is a
// per-goroutine working set (not safe for concurrent use); the Index it
// wraps is shared and read-only. Create one per worker and reuse it — all
// buffers are allocated once.
type Searcher struct {
	ix *Index
	sw kge.Model

	q  []float32 // raw sweep query (dim)
	qa []float32 // augmented query (qdim); aliases q when no bias is folded
	cq []int8    // quantized query (qdim)

	// Per-query bound constants (float64): the query's norms, quantization
	// step, exact quantization residual L1 norm (L1 geometry), and the
	// kernel-rounding slack.
	dq, qL1, qL2, eqL1, slack float64

	scores   []float32 // sparse exact scores, valid where blockGen == gen
	blockGen []uint32
	gen      uint32

	cellUB  []float64
	cellOrd []int32
	heap    []float32 // min-heap over the running top-M computed scores

	stats Stats
}

// NewSearcher returns a Searcher over ix for sw. The index must have been
// built for this exact model (fingerprint, geometry, and shape).
func NewSearcher(ix *Index, sw kge.Model, fingerprint string) (*Searcher, error) {
	if !ix.Matches(sw, fingerprint) {
		return nil, fmt.Errorf("prune: index (fingerprint %.12s…, geom %d, dim %d, n %d) does not match model (fingerprint %.12s…, geom %d, dim %d, n %d)",
			ix.fingerprint, ix.geom, ix.dim, ix.n,
			fingerprint, sw.SweepGeometry(), sw.SweepDim(), sw.NumEntities())
	}
	s := &Searcher{
		ix:       ix,
		sw:       sw,
		q:        make([]float32, ix.dim),
		cq:       make([]int8, ix.qdim),
		scores:   make([]float32, ix.n),
		blockGen: make([]uint32, (ix.n+3)/4),
		cellUB:   make([]float64, ix.cells),
		cellOrd:  make([]int32, ix.cells),
	}
	if ix.qdim == ix.dim {
		s.qa = s.q
	} else {
		s.qa = make([]float32, ix.qdim)
	}
	return s, nil
}

// Index returns the index the searcher was built over.
func (s *Searcher) Index() *Index { return s.ix }

// TakeStats returns the accumulated work counters and resets them.
func (s *Searcher) TakeStats() Stats {
	st := s.stats
	s.stats = Stats{}
	return st
}

// TopM computes the M largest computed sweep scores of the (sub, rel)
// object sweep, in descending order, via branch-and-bound over the IVF
// cells. ok=false means M ≥ |E| and the caller should run the dense sweep
// instead. The returned slice aliases an internal buffer valid until the
// next TopM call.
//
// In exact mode (approx=false) the result is the true top-M multiset of the
// float32 scores the exact kernels compute: every entity whose computed
// score exceeds the returned minimum was exact-scored and is represented,
// because cells and rows are only skipped when a float-sound upper bound
// says they cannot reach the frontier. In approx mode at most probe cells
// are visited (probe ≤ 0 picks ⌈cells/8⌉) and the int8 filter drops rows on
// its raw estimate, trading recall for speed.
//
// After TopM returns, Score answers exact per-entity scores for the same
// query (candidate targets, filtered corruptions).
func (s *Searcher) TopM(sub kg.EntityID, rel kg.RelationID, m int, approx bool, probe int) ([]float32, bool) {
	ix := s.ix
	if m >= ix.n || m <= 0 {
		return nil, false
	}
	s.setQuery(sub, rel)
	s.boundCells()
	if approx && probe <= 0 {
		probe = (ix.cells + 7) / 8
	}

	s.heap = s.heap[:0]
	visited := 0
	for _, ci := range s.cellOrd {
		lo, hi := ix.cellStart[ci], ix.cellStart[ci+1]
		if lo == hi {
			continue // empty cell: no bound, no members
		}
		full := len(s.heap) == m
		if full && s.cellUB[ci] < float64(s.heap[0]) {
			// Cells are ordered by descending upper bound: nothing after
			// this one can beat the frontier either.
			s.stats.CellsPruned += s.remainingNonEmpty(ci)
			break
		}
		if approx && visited >= probe {
			s.stats.CellsPruned += s.remainingNonEmpty(ci)
			break
		}
		visited++
		s.stats.CellsVisited++
		for _, o := range ix.members[lo:hi] {
			if len(s.heap) == m {
				threshold := float64(s.heap[0])
				if s.prescreenUB(int(o), approx) < threshold {
					continue
				}
				v := s.Score(kg.EntityID(o))
				if v > s.heap[0] {
					s.heap[0] = v
					s.siftDown()
				}
			} else {
				s.heapPush(s.Score(kg.EntityID(o)))
			}
		}
	}

	vals := s.heap
	slices.Sort(vals)
	slices.Reverse(vals)
	return vals, true
}

// remainingNonEmpty counts the not-yet-visited non-empty cells from the
// position of cell ci in the visit order (inclusive).
func (s *Searcher) remainingNonEmpty(ci int32) int {
	// cellOrd is a permutation; find ci's position lazily by scanning from
	// the end would be O(cells). Instead callers only break once per query,
	// so a linear pass over the order suffices.
	count := 0
	seen := false
	for _, c := range s.cellOrd {
		if c == ci {
			seen = true
		}
		if seen && s.ix.cellStart[c] != s.ix.cellStart[c+1] {
			count++
		}
	}
	return count
}

// Score returns the exact computed sweep score of entity o for the current
// query, rescoring o's aligned 4-row block with the exact kernels on first
// touch. For the dot geometry the block alignment makes the result
// bit-identical to the dense MatVec sweep; the L1 kernel is per-row
// and trivially identical.
func (s *Searcher) Score(o kg.EntityID) float32 {
	b := int(o) >> 2
	if s.blockGen[b] != s.gen {
		s.scoreBlock(b)
	}
	return s.scores[o]
}

func (s *Searcher) scoreBlock(b int) {
	ix := s.ix
	lo := b * 4
	hi := lo + 4
	if hi > ix.n {
		hi = ix.n
	}
	ent := s.sw.SweepEntityTable()
	switch ix.geom {
	case kge.SweepDot:
		vecmath.MatVecRange(s.scores, ent, s.q, lo, hi)
		if bias := s.sw.SweepBias(); bias != nil {
			for o := lo; o < hi; o++ {
				s.scores[o] += bias[o]
			}
		}
	case kge.SweepL1:
		for o := lo; o < hi; o++ {
			s.scores[o] = -vecmath.L1Distance(s.q, ent.Row(o))
		}
	}
	s.blockGen[b] = s.gen
	s.stats.ExactRows += hi - lo
}

// setQuery builds the (sub, rel) query, its augmented/quantized forms, and
// the per-query bound constants, and invalidates all cached block scores.
func (s *Searcher) setQuery(sub kg.EntityID, rel kg.RelationID) {
	ix := s.ix
	s.gen++
	if s.gen == 0 { // uint32 wrap: reset stamps once every 4B queries
		clear(s.blockGen)
		s.gen = 1
	}
	s.sw.BuildObjectQuery(sub, rel, s.q)
	if len(s.qa) != len(s.q) {
		copy(s.qa, s.q)
		s.qa[len(s.qa)-1] = 1 // the bias column's coefficient
	}

	var l1, l2, maxAbs float64
	for _, v := range s.qa {
		f := math.Abs(float64(v))
		l1 += f
		l2 += float64(v) * float64(v)
		if f > maxAbs {
			maxAbs = f
		}
	}
	s.qL1, s.qL2 = l1, math.Sqrt(l2)

	switch ix.geom {
	case kge.SweepDot:
		s.dq = maxAbs / 127
		for j, v := range s.qa {
			s.cq[j] = quantOne(float64(v), s.dq)
		}
		s.slack = kernelSlack(ix.qdim, s.qL2*ix.maxRowL2)
	case kge.SweepL1:
		s.quantizeDistQuery()
		s.slack = kernelSlack(ix.dim, s.qL1+ix.maxRowL1)
	}
}

// quantizeDistQuery quantizes the query with the entities' global scale and
// records the exact residual L1 norm: queries (s + r) can fall outside the
// entity range, so the clamp can engage and the residual must be measured,
// not assumed ≤ Δ/2.
func (s *Searcher) quantizeDistQuery() {
	ix := s.ix
	s.dq = ix.gscale
	var el1 float64
	for j, v := range s.qa {
		c := quantOne(float64(v), s.dq)
		s.cq[j] = c
		el1 += math.Abs(float64(v) - s.dq*float64(c))
	}
	s.eqL1 = el1
}

// boundCells computes every cell's score upper bound for the current query
// and sorts the visit order by descending bound (ties toward the lower cell
// id, keeping runs deterministic).
func (s *Searcher) boundCells() {
	ix := s.ix
	for c := 0; c < ix.cells; c++ {
		cen := ix.centroids.Row(c)
		switch ix.geom {
		case kge.SweepDot:
			var dot float64
			for j, v := range s.qa {
				dot += float64(v) * float64(cen[j])
			}
			s.cellUB[c] = dot + s.qL2*ix.radL2[c] + s.slack
		case kge.SweepL1:
			var d float64
			for j, v := range s.qa {
				d += math.Abs(float64(v) - float64(cen[j]))
			}
			d -= ix.radL1[c]
			if d < 0 {
				d = 0
			}
			s.cellUB[c] = -d + s.slack
		}
		s.cellOrd[c] = int32(c)
	}
	sort.Slice(s.cellOrd, func(i, j int) bool {
		a, b := s.cellOrd[i], s.cellOrd[j]
		if s.cellUB[a] != s.cellUB[b] {
			return s.cellUB[a] > s.cellUB[b]
		}
		return a < b
	})
}

// prescreenUB returns the int8 filter's score upper bound for entity o (or,
// in approx mode, its raw estimate). Exact-mode bounds hold for the computed
// float32 kernel score: the dequantization error terms and the kernel slack
// are added on top of the widening-integer estimate.
func (s *Searcher) prescreenUB(o int, approx bool) float64 {
	ix := s.ix
	s.stats.PrescreenRows++
	code := ix.codes[o*ix.qdim : (o+1)*ix.qdim]
	switch ix.geom {
	case kge.SweepDot:
		delta := float64(ix.scale[o])
		est := delta * s.dq * float64(vecmath.DotI8(s.cq, code))
		if approx {
			return est
		}
		err := delta * ((s.dq/2)*float64(ix.codeL1[o]) + s.qL1/2) * quantInflate
		return est + err + s.slack
	default: // SweepL1
		di := s.dq * float64(vecmath.L1DistI8(s.cq, code))
		if approx {
			return -di
		}
		d := di - s.eqL1 - (s.dq/2)*float64(ix.qdim)*quantInflate
		if d < 0 {
			d = 0
		}
		return -d + s.slack
	}
}

// heapPush inserts v into the min-heap.
func (s *Searcher) heapPush(v float32) {
	s.heap = append(s.heap, v)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p] <= s.heap[i] {
			break
		}
		s.heap[p], s.heap[i] = s.heap[i], s.heap[p]
		i = p
	}
}

// siftDown restores the heap after the root was replaced.
func (s *Searcher) siftDown() {
	n := len(s.heap)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.heap[l] < s.heap[smallest] {
			smallest = l
		}
		if r < n && s.heap[r] < s.heap[smallest] {
			smallest = r
		}
		if smallest == i {
			return
		}
		s.heap[i], s.heap[smallest] = s.heap[smallest], s.heap[i]
		i = smallest
	}
}
