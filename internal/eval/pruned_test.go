package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/prune"
)

// prunedFixture builds one model of each family, its
// fingerprint, and its prune index.
type prunedFixture struct {
	name  string
	model kge.Model
	index *prune.Index
}

func prunedFixtures(t *testing.T, nEnt, nRel, dim int) []prunedFixture {
	t.Helper()
	var out []prunedFixture
	for _, name := range kge.ModelNames() {
		model, err := kge.New(name, kge.Config{
			NumEntities: nEnt, NumRelations: nRel, Dim: dim, Seed: 3,
		})
		if err != nil {
			t.Fatalf("new %s: %v", name, err)
		}
		rng := rand.New(rand.NewSource(7))
		for _, p := range model.Params().List() {
			for i := range p.M.Data {
				p.M.Data[i] += float32(rng.NormFloat64()) * 0.2
			}
		}
		sw, ok := model.(kge.ObjectSweeper)
		if !ok {
			t.Fatalf("%s does not implement ObjectSweeper", name)
		}
		ix, err := prune.Build(sw, kge.Fingerprint(model), prune.Params{Cells: 6})
		if err != nil {
			t.Fatalf("build index for %s: %v", name, err)
		}
		out = append(out, prunedFixture{name, model, ix})
	}
	return out
}

func testFilter(nEnt, nRel, triples int, seed int64) *kg.Graph {
	filter := kg.NewGraph()
	for i := 0; i < nEnt; i++ {
		filter.Entities.Intern(fmt.Sprintf("e%d", i))
	}
	for i := 0; i < nRel; i++ {
		filter.Relations.Intern(fmt.Sprintf("r%d", i))
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < triples; i++ {
		filter.Add(kg.Triple{
			S: kg.EntityID(rng.Intn(nEnt)),
			R: kg.RelationID(rng.Intn(nRel)),
			O: kg.EntityID(rng.Intn(nEnt)),
		})
	}
	return filter
}

// checkThresholdEquivalence asserts the RankObjectsPruned exact-mode
// contract against the dense ranks: identical keep/discard decisions at topN,
// identical ranks for everything kept, and bit-identical scores throughout.
// The dense side comes from perTripleBlock — per-candidate RankObject — so
// the comparison does not lean on the counting pass the pruned path's
// fallbacks run through.
func checkThresholdEquivalence(t *testing.T, tag string, topN int,
	pruned, dense [][]int, prunedScores, denseScores [][]float32) {
	t.Helper()
	for gi := range dense {
		for i := range dense[gi] {
			dr, pr := dense[gi][i], pruned[gi][i]
			if dr <= topN || pr <= topN {
				if dr != pr {
					t.Fatalf("%s: group %d cand %d: pruned rank %d != dense %d (topN %d)",
						tag, gi, i, pr, dr, topN)
				}
			}
			if prunedScores[gi][i] != denseScores[gi][i] {
				t.Fatalf("%s: group %d cand %d: pruned score %x != dense %x",
					tag, gi, i, prunedScores[gi][i], denseScores[gi][i])
			}
		}
	}
}

// TestRankObjectsPrunedExactEquivalence is the eval-layer half of the
// exactness property: for all six model families under both protocols,
// exact-mode pruned ranking keeps exactly the candidates the dense path
// keeps, with identical ranks and scores for everything kept.
func TestRankObjectsPrunedExactEquivalence(t *testing.T) {
	const (
		nEnt = 60
		nRel = 4
		dim  = 8
		topN = 7
	)
	filter := testFilter(nEnt, nRel, 250, 11)
	allObjects := make([]kg.EntityID, nEnt)
	for o := range allObjects {
		allObjects[o] = kg.EntityID(o)
	}

	for _, fx := range prunedFixtures(t, nEnt, nRel, dim) {
		t.Run(fx.name, func(t *testing.T) {
			for _, tc := range []struct {
				protocol string
				filter   *kg.Graph
			}{
				{"raw", nil},
				{"filtered", filter},
			} {
				ranker := NewRanker(fx.model, tc.filter)
				for r := 0; r < nRel; r++ {
					groups := []Group{
						{S: 0, Objects: allObjects},
						{S: 1, Objects: []kg.EntityID{3, 7, 7, 0}},
						{S: 2, Objects: allObjects[:9]},
						{S: 0, Objects: []kg.EntityID{59}},
					}
					rel := kg.RelationID(r)
					dense, denseScores := perTripleBlock(ranker, rel, groups)
					pruned, prunedScores, st := ranker.RankObjectsPruned(rel, groups, topN,
						PruneConfig{Index: fx.index, Exact: true})
					tag := fmt.Sprintf("%s/%s/r=%d", fx.name, tc.protocol, r)
					if st.Fallbacks > len(groups) {
						t.Fatalf("%s: %d fallbacks for %d groups", tag, st.Fallbacks, len(groups))
					}
					// Any group that did not fall back built its frontier with
					// the exact kernels; zero here means the searcher stats
					// were dropped (e.g. the deferred TakeStats missing the
					// returned value).
					if st.Fallbacks < len(groups) && st.ExactRows == 0 {
						t.Fatalf("%s: pruned path ran (%d/%d groups) but reported zero exact rows",
							tag, len(groups)-st.Fallbacks, len(groups))
					}
					checkThresholdEquivalence(t, tag, topN, pruned, dense, prunedScores, denseScores)
				}
			}
		})
	}
}

// TestRankObjectsPrunedTieHeavy forces masses of exact score ties at the
// prune boundary: with only three distinct entity rows the frontier minimum
// is tied by many candidates, so groups must detect the inconclusive bound
// and fall back — and still agree with the dense path everywhere.
func TestRankObjectsPrunedTieHeavy(t *testing.T) {
	const (
		nEnt = 48
		nRel = 2
		dim  = 8
		topN = 5
	)
	model, err := kge.New("distmult", kge.Config{
		NumEntities: nEnt, NumRelations: nRel, Dim: dim, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	sw := model.(kge.ObjectSweeper)
	ent := sw.SweepEntityTable()
	for o := 0; o < ent.Rows; o++ {
		copy(ent.Row(o), ent.Row(o%3))
	}
	ix, err := prune.Build(sw, kge.Fingerprint(model), prune.Params{Cells: 4})
	if err != nil {
		t.Fatal(err)
	}

	allObjects := make([]kg.EntityID, nEnt)
	for o := range allObjects {
		allObjects[o] = kg.EntityID(o)
	}
	filter := testFilter(nEnt, nRel, 120, 13)
	for _, f := range []*kg.Graph{nil, filter} {
		ranker := NewRanker(model, f)
		groups := []Group{{S: 0, Objects: allObjects}, {S: 1, Objects: allObjects[:6]}}
		dense, denseScores := perTripleBlock(ranker, 0, groups)
		pruned, prunedScores, st := ranker.RankObjectsPruned(0, groups, topN,
			PruneConfig{Index: ix, Exact: true})
		if st.Fallbacks == 0 {
			t.Error("tie-heavy block produced no fallbacks — boundary ties were not detected")
		}
		checkThresholdEquivalence(t, "tie-heavy", topN, pruned, dense, prunedScores, denseScores)
	}
}

// TestRankObjectsPrunedFallbacks covers the paths that must degrade to the
// dense sweep: a frontier covering the whole entity set, and a model without
// a sweeper geometry.
func TestRankObjectsPrunedFallbacks(t *testing.T) {
	const nEnt = 40
	fx := prunedFixtures(t, nEnt, 2, 8)[0]
	ranker := NewRanker(fx.model, nil)
	groups := []Group{{S: 0, Objects: []kg.EntityID{1, 2, 3}}}

	// topN ≥ |E|: TopM refuses, the group falls back, results match dense.
	dense, _ := perTripleBlock(ranker, 0, groups)
	pruned, _, st := ranker.RankObjectsPruned(0, groups, nEnt+10, PruneConfig{Index: fx.index, Exact: true})
	if st.Fallbacks != len(groups) {
		t.Errorf("want %d fallbacks, got %d", len(groups), st.Fallbacks)
	}
	for i := range dense[0] {
		if dense[0][i] != pruned[0][i] {
			t.Errorf("fallback rank %d != dense %d", pruned[0][i], dense[0][i])
		}
	}

	// A model with no sweeper geometry prunes nothing but still answers.
	stub := &stubModel{n: 8, k: 1, table: []float32{0.5, 0.9, 0.5, 0.1, 0.5, 0.9, 0.5, 0.5}}
	sr := NewRanker(stub, nil)
	objects := []kg.EntityID{0, 1, 2, 3, 4}
	want, _ := perTripleBlock(sr, 0, []Group{{S: 0, Objects: objects}})
	got, _, st2 := sr.RankObjectsPruned(0, []Group{{S: 0, Objects: objects}}, 3,
		PruneConfig{Index: fx.index, Exact: true})
	if st2.Fallbacks != 1 {
		t.Errorf("stub model: want 1 fallback, got %d", st2.Fallbacks)
	}
	for i := range want[0] {
		if want[0][i] != got[0][i] {
			t.Errorf("stub fallback rank %d != dense %d", got[0][i], want[0][i])
		}
	}
}

// TestRankObjectsPrunedApprox sanity-checks the approximate mode: it runs,
// returns exact scores (approximation affects ranks only), and prunes more
// aggressively than exact mode under a tight probe budget.
func TestRankObjectsPrunedApprox(t *testing.T) {
	const (
		nEnt = 60
		topN = 5
	)
	fx := prunedFixtures(t, nEnt, 2, 8)[1] // distmult
	ranker := NewRanker(fx.model, nil)
	allObjects := make([]kg.EntityID, nEnt)
	for o := range allObjects {
		allObjects[o] = kg.EntityID(o)
	}
	groups := []Group{{S: 0, Objects: allObjects}}
	_, denseScores := perTripleBlock(ranker, 0, groups)
	// Six cells: approx mode probes ⌈6/8⌉ = 1 of them.
	ranks, scores, _ := ranker.RankObjectsPruned(0, groups, topN, PruneConfig{Index: fx.index})
	for i := range denseScores[0] {
		if scores[0][i] != denseScores[0][i] {
			t.Fatalf("approx score %x != dense %x", scores[0][i], denseScores[0][i])
		}
		if ranks[0][i] < 1 {
			t.Fatalf("approx rank %d < 1", ranks[0][i])
		}
	}
}

// TestBatchBufsShrink is the regression test for the pooled score matrix
// release policy: a skewed workload — one hub relation block far larger than
// everything after it — must not pin the hub-sized buffer forever.
func TestBatchBufsShrink(t *testing.T) {
	var b batchBufs

	// The hub block allocates past the release floor.
	hubRows := 3 * batchShrinkFloor / 1000
	b.matrix(hubRows, 1000)
	hubCap := cap(b.data)
	if hubCap < batchShrinkFloor {
		t.Fatalf("hub buffer %d below the release floor %d — test mis-sized", hubCap, batchShrinkFloor)
	}

	// Small blocks under-use it; within the streak window nothing changes.
	for i := 0; i < batchShrinkStreak-1; i++ {
		b.matrix(4, 100)
		if cap(b.data) != hubCap {
			t.Fatalf("buffer released after only %d under-used calls", i+1)
		}
	}
	// One occasional large block resets the streak.
	b.matrix(hubRows, 1000)
	for i := 0; i < batchShrinkStreak-1; i++ {
		b.matrix(4, 100)
	}
	if cap(b.data) != hubCap {
		t.Fatal("streak not reset by an interleaved large block")
	}
	// A full streak of small blocks releases the hub-sized backing.
	for i := 0; i < batchShrinkStreak; i++ {
		b.matrix(4, 100)
	}
	if cap(b.data) >= hubCap {
		t.Fatalf("buffer still %d floats after sustained small blocks (hub %d)", cap(b.data), hubCap)
	}

	// Small buffers below the floor are never churned.
	var small batchBufs
	small.matrix(64, 64)
	smallCap := cap(small.data)
	for i := 0; i < 4*batchShrinkStreak; i++ {
		small.matrix(1, 4)
	}
	if cap(small.data) != smallCap {
		t.Fatal("sub-floor buffer was released — pure churn")
	}
}

// TestBatchBufsShrinkEndToEnd drives the policy through RankObjectsBatch on
// a skewed synthetic graph: one hub subject with a huge candidate block,
// then a long tail of tiny blocks, single-threaded so the same pooled bufs
// are reused.
func TestBatchBufsShrinkEndToEnd(t *testing.T) {
	nEnt := 2 * batchShrinkFloor / 100 // hub block of 100 groups crosses the floor
	m := &stubModel{n: nEnt, k: 1, table: make([]float32, nEnt)}
	rng := rand.New(rand.NewSource(5))
	for i := range m.table {
		m.table[i] = rng.Float32()
	}
	r := NewRanker(m, nil)

	hub := make([]Group, 100)
	for i := range hub {
		hub[i] = Group{S: kg.EntityID(i % nEnt), Objects: []kg.EntityID{0, 1, 2}}
	}
	r.RankObjectsBatch(0, hub)
	// Under the race detector sync.Pool drops a share of what is put into
	// it; a run that lost the buffer has nothing to observe.
	bufs, _ := r.batchPool.Get().(*batchBufs)
	if bufs == nil {
		t.Skip("sync.Pool dropped the pooled buffer")
	}
	hubCap := cap(bufs.data)
	r.batchPool.Put(bufs)
	if hubCap < batchShrinkFloor {
		t.Fatalf("hub block capacity %d below floor — test mis-sized", hubCap)
	}

	tail := []Group{{S: 1, Objects: []kg.EntityID{0, 1}}}
	for i := 0; i < 4*batchShrinkStreak; i++ {
		r.RankObjectsBatch(0, tail)
	}
	if bufs, _ = r.batchPool.Get().(*batchBufs); bufs == nil {
		t.Skip("sync.Pool dropped the pooled buffer")
	}
	defer r.batchPool.Put(bufs)
	if cap(bufs.data) >= hubCap {
		t.Fatalf("pooled buffer still %d floats after the tail (hub %d)", cap(bufs.data), hubCap)
	}
}
