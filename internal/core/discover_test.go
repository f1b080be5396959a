package core

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
	"repro/internal/train"
)

// tinyTrained trains a small DistMult model on the tiny synthetic dataset.
// Shared across tests via sync-once-like caching in the test binary.
var cachedDS *kg.Dataset
var cachedModel kge.Model

func tinyTrained(t *testing.T) (*kg.Dataset, kge.Model) {
	t.Helper()
	if cachedModel != nil {
		return cachedDS, cachedModel
	}
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	m, err := kge.New("distmult", kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          16,
		Seed:         1,
	})
	if err != nil {
		t.Fatalf("new model: %v", err)
	}
	if _, err := train.Run(context.Background(), m, ds, train.Config{
		Epochs: 15, BatchSize: 64, Seed: 5,
	}); err != nil {
		t.Fatalf("train: %v", err)
	}
	cachedDS, cachedModel = ds, m
	return ds, m
}

func discover(t *testing.T, opts Options) *Result {
	t.Helper()
	ds, m := tinyTrained(t)
	strategy := NewEntityFrequency()
	res, err := DiscoverFacts(context.Background(), m, ds.Train, strategy, opts)
	if err != nil {
		t.Fatalf("DiscoverFacts: %v", err)
	}
	return res
}

func TestDiscoverFactsBasicInvariants(t *testing.T) {
	ds, _ := tinyTrained(t)
	res := discover(t, Options{TopN: 30, MaxCandidates: 50, Seed: 2})

	if len(res.Facts) == 0 {
		t.Fatal("no facts discovered")
	}
	for _, f := range res.Facts {
		// Line 12: discovered facts are not in the training graph.
		if ds.Train.Contains(f.Triple) {
			t.Fatalf("discovered fact %v already in G", f.Triple)
		}
		// Line 15: every returned fact respects the quality threshold.
		if f.Rank < 1 || f.Rank > 30 {
			t.Fatalf("fact rank %d outside [1, top_n]", f.Rank)
		}
	}
	// Output is sorted by rank (best first).
	for i := 1; i < len(res.Facts); i++ {
		if res.Facts[i-1].Rank > res.Facts[i].Rank {
			t.Fatal("facts not sorted by rank")
		}
	}
	if res.Stats.Relations != ds.Train.NumRelations() {
		t.Errorf("iterated %d relations, want %d", res.Stats.Relations, ds.Train.NumRelations())
	}
	if res.Stats.Total <= 0 {
		t.Error("total runtime not recorded")
	}
}

func TestDiscoverFactsRespectsMaxCandidates(t *testing.T) {
	res := discover(t, Options{TopN: 1000, MaxCandidates: 40, Seed: 3})
	ds, _ := tinyTrained(t)
	perRelation := make(map[kg.RelationID]int)
	for _, f := range res.Facts {
		perRelation[f.Triple.R]++
	}
	for r, n := range perRelation {
		if n > 40 {
			t.Errorf("relation %d produced %d facts > max_candidates 40", r, n)
		}
	}
	if res.Stats.Generated > 40*ds.Train.NumRelations() {
		t.Errorf("generated %d candidates > bound %d", res.Stats.Generated, 40*ds.Train.NumRelations())
	}
}

func TestDiscoverFactsRelationsSubset(t *testing.T) {
	res := discover(t, Options{TopN: 50, MaxCandidates: 30, Seed: 4, Relations: []kg.RelationID{0, 2}})
	for _, f := range res.Facts {
		if f.Triple.R != 0 && f.Triple.R != 2 {
			t.Fatalf("fact for unrequested relation %d", f.Triple.R)
		}
	}
	if res.Stats.Relations != 2 {
		t.Errorf("iterated %d relations, want 2", res.Stats.Relations)
	}
}

func TestDiscoverFactsDeterministicWithSeed(t *testing.T) {
	a := discover(t, Options{TopN: 40, MaxCandidates: 30, Seed: 7})
	b := discover(t, Options{TopN: 40, MaxCandidates: 30, Seed: 7})
	if len(a.Facts) != len(b.Facts) {
		t.Fatalf("same seed, different fact counts: %d vs %d", len(a.Facts), len(b.Facts))
	}
	for i := range a.Facts {
		if a.Facts[i] != b.Facts[i] {
			t.Fatalf("same seed, different facts at %d: %v vs %v", i, a.Facts[i], b.Facts[i])
		}
	}
	c := discover(t, Options{TopN: 40, MaxCandidates: 30, Seed: 8})
	same := len(a.Facts) == len(c.Facts)
	if same {
		for i := range a.Facts {
			if a.Facts[i] != c.Facts[i] {
				same = false
				break
			}
		}
	}
	if same && len(a.Facts) > 3 {
		t.Error("different seeds produced identical output (suspicious)")
	}
}

func TestDiscoverFactsTopNFiltersQuality(t *testing.T) {
	loose := discover(t, Options{TopN: 1000, MaxCandidates: 50, Seed: 5})
	tight := discover(t, Options{TopN: 5, MaxCandidates: 50, Seed: 5})
	if len(tight.Facts) > len(loose.Facts) {
		t.Error("tighter top_n produced more facts")
	}
	// Figure 8(b)'s shape: a tighter threshold yields a better (or equal) MRR.
	if len(tight.Facts) > 0 && tight.MRR() < loose.MRR() {
		t.Errorf("tight top_n MRR %.4f < loose %.4f", tight.MRR(), loose.MRR())
	}
}

func TestDiscoverFactsCacheWeightsEquivalent(t *testing.T) {
	ds, m := tinyTrained(t)
	run := func(cache bool) *Result {
		res, err := DiscoverFacts(context.Background(), m, ds.Train, NewClusteringTriangles(), Options{
			TopN: 50, MaxCandidates: 30, Seed: 9, CacheWeights: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(false)
	cached := run(true)
	if len(plain.Facts) != len(cached.Facts) {
		t.Fatalf("weight caching changed results: %d vs %d facts", len(plain.Facts), len(cached.Facts))
	}
	for i := range plain.Facts {
		if plain.Facts[i] != cached.Facts[i] {
			t.Fatalf("weight caching changed fact %d", i)
		}
	}
}

// TestStatisticComputations counts line 7's statistic computations through a
// strategy whose statistic counts its calls: once per relation in faithful
// mode, once per sweep under CacheWeights.
func TestStatisticComputations(t *testing.T) {
	ds, m := tinyTrained(t)
	calls := 0
	counting := Strategy{name: "counting", statistic: func(g *kg.Graph) []float64 {
		calls++
		return degreeStat(g)
	}}
	for _, cache := range []bool{false, true} {
		calls = 0
		res, err := DiscoverFacts(context.Background(), m, ds.Train, counting, Options{
			TopN: 20, MaxCandidates: 40, Seed: 3, CacheWeights: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := res.Stats.Relations
		if cache {
			want = 1
		}
		if res.Stats.Relations < 2 || calls != want {
			t.Errorf("CacheWeights=%v: %d statistic computations over %d relations, want %d",
				cache, calls, res.Stats.Relations, want)
		}
	}
}

// TestSharedStrategyConcurrentSweeps runs two sweeps at once on one strategy
// value, one caching its statistic and one recomputing it per relation: each
// must equal the same sweep run alone, and under -race neither may write
// what the other reads.
func TestSharedStrategyConcurrentSweeps(t *testing.T) {
	ds, m := tinyTrained(t)
	s := NewClusteringTriangles()
	run := func(cache bool) (*Result, error) {
		return DiscoverFacts(context.Background(), m, ds.Train, s, Options{
			TopN: 50, MaxCandidates: 30, Seed: 9, Workers: 1, CacheWeights: cache,
		})
	}
	modes := []bool{false, true}
	var got [2]*Result
	var errs [2]error
	var wg sync.WaitGroup
	for i, cache := range modes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(cache)
		}()
	}
	wg.Wait()
	for i, cache := range modes {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := run(cache)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got[i].Facts, want.Facts) {
			t.Errorf("CacheWeights=%v: the concurrent sweep found %d facts, the sequential one %d, or they differ",
				cache, len(got[i].Facts), len(want.Facts))
		}
	}
}

func TestDiscoverFactsRankFiltered(t *testing.T) {
	ds, m := tinyTrained(t)
	res, err := DiscoverFacts(context.Background(), m, ds.Train, NewUniformRandom(), Options{
		TopN: 30, MaxCandidates: 30, Seed: 10, RankFiltered: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Facts {
		if f.Rank < 1 || f.Rank > 30 {
			t.Fatalf("filtered rank %d out of range", f.Rank)
		}
	}
}

func TestDiscoverFactsContextCancellation(t *testing.T) {
	ds, m := tinyTrained(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DiscoverFacts(ctx, m, ds.Train, NewUniformRandom(), Options{}); err == nil {
		t.Fatal("expected context error")
	}
}

// A negative limit has no meaning: TopN -3 would keep no fact it ranked,
// and MaxCandidates -1 would generate no candidate.
func TestDiscoverFactsRefusesNegativeLimits(t *testing.T) {
	ds, m := tinyTrained(t)
	for _, opts := range []Options{{TopN: -3}, {MaxCandidates: -1}} {
		if _, err := DiscoverFacts(context.Background(), m, ds.Train, NewEntityFrequency(), opts); err == nil {
			t.Errorf("%+v: accepted a negative limit", opts)
		}
	}
	for _, opts := range []ExhaustiveOptions{{TopN: -3}, {MaxCandidates: -1}} {
		if _, _, err := ExhaustiveDiscover(context.Background(), m, ds.Train, opts); err == nil {
			t.Errorf("exhaustive %+v: accepted a negative limit", opts)
		}
	}
}

// TestRankAtTopNIsKept pins line 15's inclusive threshold for both candidate
// generators: a candidate ranked exactly TopN is a fact.
func TestRankAtTopNIsKept(t *testing.T) {
	ds, m := tinyTrained(t)
	rel := []kg.RelationID{ds.Train.RelationIDs()[0]}
	runs := map[string]func(topN int) []Fact{
		"sampled": func(topN int) []Fact {
			return discover(t, Options{TopN: topN, MaxCandidates: 200, Seed: 4, Relations: rel}).Facts
		},
		"exhaustive": func(topN int) []Fact {
			res, _, err := ExhaustiveDiscover(context.Background(), m, ds.Train, ExhaustiveOptions{TopN: topN, Relations: rel})
			if err != nil {
				t.Fatal(err)
			}
			return res.Facts
		},
	}
	for name, run := range runs {
		// No raw rank exceeds |E|, so TopN = |E| keeps every candidate.
		all := run(ds.Train.NumEntities())
		k := all[len(all)/2].Rank
		want := 0
		for _, f := range all {
			if f.Rank <= k {
				want++
			}
		}
		got := run(k)
		if len(got) != want || len(got) == 0 || got[len(got)-1].Rank != k {
			t.Errorf("%s: TopN %d kept %d facts, want %d, the last ranked %d", name, k, len(got), want, k)
		}
	}
}

// TestSampleSizeIsRootPlusTen pins line 4: an iteration draws k =
// ⌊√max_candidates⌋ + 10 entities per side. On a relation whose pools exceed
// k, the k×k grid holds more than max_candidates cells, so the first
// iteration fills the budget; with TopN = |E| every candidate is a fact, and
// the facts cover exactly the k sampled objects.
func TestSampleSizeIsRootPlusTen(t *testing.T) {
	ds, m := tinyTrained(t)
	g := ds.Train
	const maxCandidates = 120 // √120 ≈ 10.95: floor, not rounding, gives k = 20
	k := 20
	for _, r := range g.RelationIDs() {
		if len(g.SideEntities(r, kg.SubjectSide)) <= k || len(g.SideEntities(r, kg.ObjectSide)) <= k {
			continue
		}
		res, err := DiscoverFacts(context.Background(), m, g, NewUniformRandom(), Options{
			TopN: g.NumEntities(), MaxCandidates: maxCandidates, Seed: 6, Relations: []kg.RelationID{r},
		})
		if err != nil {
			t.Fatal(err)
		}
		objects := map[kg.EntityID]bool{}
		for _, f := range res.Facts {
			objects[f.Triple.O] = true
		}
		if res.Stats.Iterations != 1 || len(res.Facts) != maxCandidates || len(objects) != k {
			t.Errorf("relation %d: %d iterations, %d facts over %d objects, want 1, %d and %d",
				r, res.Stats.Iterations, len(res.Facts), len(objects), maxCandidates, k)
		}
		return
	}
	t.Fatalf("no relation has pools larger than %d", k)
}

func TestDiscoverFactsModelGraphMismatch(t *testing.T) {
	ds, _ := tinyTrained(t)
	small, err := kge.New("distmult", kge.Config{NumEntities: 2, NumRelations: 1, Dim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DiscoverFacts(context.Background(), small, ds.Train, NewUniformRandom(), Options{}); err == nil {
		t.Fatal("expected error for model/graph entity mismatch")
	}
}

func TestStatsFactsPerHour(t *testing.T) {
	s := Stats{Total: 30 * 60 * 1e9} // 30 minutes in nanoseconds
	if got := s.FactsPerHour(100); got != 200 {
		t.Errorf("FactsPerHour = %g, want 200", got)
	}
	var zero Stats
	if zero.FactsPerHour(5) != 0 {
		t.Error("zero-duration FactsPerHour should be 0")
	}
}

func TestResultRanksAndMRR(t *testing.T) {
	r := &Result{Facts: []Fact{{Rank: 1}, {Rank: 4}}}
	ranks := r.Ranks()
	if len(ranks) != 2 || ranks[0] != 1 || ranks[1] != 4 {
		t.Fatalf("Ranks = %v", ranks)
	}
	want := (1.0 + 0.25) / 2
	if got := r.MRR(); got != want {
		t.Errorf("MRR = %g, want %g", got, want)
	}
}

func TestGenerationStopsAtMaxIterations(t *testing.T) {
	// With a single possible candidate pair and a huge max_candidates, the
	// generation loop must stop after MaxIterations rather than spinning.
	g := kg.NewGraph()
	g.Entities.Intern("a")
	g.Entities.Intern("b")
	g.Entities.Intern("c")
	g.Relations.Intern("r")
	g.Add(kg.Triple{S: 0, R: 0, O: 1})
	m, err := kge.New("distmult", kge.Config{NumEntities: 3, NumRelations: 1, Dim: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DiscoverFacts(context.Background(), m, g, NewUniformRandom(), Options{
		TopN: 3, MaxCandidates: 10000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations > MaxIterations {
		t.Errorf("iterations = %d, want <= %d", res.Stats.Iterations, MaxIterations)
	}
}

// TestDiscoverRefusesUncoveredVocabulary: a model with fewer entities or
// relations than the graph would index past its tables inside a ranking
// worker goroutine, where no caller can recover the panic. Both discovery
// entry points return an error instead.
func TestDiscoverRefusesUncoveredVocabulary(t *testing.T) {
	ds, _ := tinyTrained(t)
	g := ds.Train
	for _, shape := range []struct {
		name       string
		ents, rels int
	}{
		{"relations", g.NumEntities(), 1},
		{"entities", g.NumEntities() - 1, g.NumRelations()},
	} {
		m, err := kge.New("distmult", kge.Config{NumEntities: shape.ents, NumRelations: shape.rels, Dim: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DiscoverFacts(context.Background(), m, g, NewEntityFrequency(), Options{TopN: 10, MaxCandidates: 50}); err == nil {
			t.Errorf("DiscoverFacts accepted a model short of %s", shape.name)
		}
		if _, _, err := ExhaustiveDiscover(context.Background(), m, g, ExhaustiveOptions{TopN: 10}); err == nil {
			t.Errorf("ExhaustiveDiscover accepted a model short of %s", shape.name)
		}
	}
}
