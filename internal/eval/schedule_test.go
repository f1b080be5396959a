package eval

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
)

// schedulerTriples spans four relations, interleaved so no relation's groups
// are contiguous: a hub subject (entity 0, every object of relation 0, some
// twice), mid-sized groups on the counting path (≥ 3 objects), pairs and
// singletons on the linear path, one triple repeated within a group and one
// subject shared by three relations.
func schedulerTriples(nEnt int) []kg.Triple {
	var ts []kg.Triple
	for o := 0; o < nEnt; o++ {
		ts = append(ts, kg.Triple{S: 0, R: 0, O: kg.EntityID(o)})
		if o%5 == 0 {
			ts = append(ts, kg.Triple{S: 0, R: 0, O: kg.EntityID(o)}) // duplicate
		}
		s := kg.EntityID(1 + o%7)
		ts = append(ts, kg.Triple{S: s, R: 1, O: kg.EntityID((o * 3) % nEnt)})
		if o < 9 {
			ts = append(ts, kg.Triple{S: kg.EntityID(10 + o), R: 2, O: kg.EntityID(nEnt - 1 - o)}) // singletons
		}
		if o < 6 {
			ts = append(ts, kg.Triple{S: kg.EntityID(20 + o/2), R: 3, O: kg.EntityID(o)}) // pairs
		}
	}
	ts = append(ts,
		kg.Triple{S: 0, R: 1, O: 5}, kg.Triple{S: 0, R: 2, O: 5}, // the hub under other relations
		kg.Triple{S: 0, R: 1, O: 6}, kg.Triple{S: 0, R: 1, O: 7})
	return ts
}

// TestSchedulerMatchesPerTriple holds the triples-to-ranks scheduler — (s, r)
// grouping, per-relation block packing, the worker pool and the scatter — to
// per-triple RankObject and the triple's own sweep score, for every model
// under both protocols at one worker, two, and more workers than groups. The
// oracle shares no line with the grouping or the counting pass.
func TestSchedulerMatchesPerTriple(t *testing.T) {
	const (
		nEnt = 40
		nRel = 4
		dim  = 12
	)
	filter := kg.NewGraph()
	for i := 0; i < nEnt; i++ {
		filter.Entities.Intern(fmt.Sprintf("e%d", i))
	}
	for i := 0; i < nRel; i++ {
		filter.Relations.Intern(fmt.Sprintf("r%d", i))
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 240; i++ {
		filter.Add(kg.Triple{
			S: kg.EntityID(rng.Intn(nEnt)),
			R: kg.RelationID(rng.Intn(nRel)),
			O: kg.EntityID(rng.Intn(nEnt)),
		})
	}
	triples := schedulerTriples(nEnt)

	// What the packing must report: one group per distinct (s, r), and per
	// relation ⌈groups/rows⌉ blocks, rows being the per-worker share (the
	// 4 MiB budget is far above it at this vocabulary size).
	type sr struct {
		s kg.EntityID
		r kg.RelationID
	}
	perRel := map[kg.RelationID]int{}
	seen := map[sr]bool{}
	for _, tr := range triples {
		if k := (sr{tr.S, tr.R}); !seen[k] {
			seen[k] = true
			perRel[tr.R]++
		}
	}
	wantGroups := len(seen)
	wantBlocks := func(workers int) int {
		if workers > wantGroups {
			workers = wantGroups
		}
		rows := (wantGroups + workers - 1) / workers
		n := 0
		for _, g := range perRel {
			n += (g + rows - 1) / rows
		}
		return n
	}

	for _, name := range kge.ModelNames() {
		model, err := kge.New(name, kge.Config{NumEntities: nEnt, NumRelations: nRel, Dim: dim, Seed: 3})
		if err != nil {
			t.Fatalf("new %s: %v", name, err)
		}
		sweep := make([]float32, nEnt)
		for _, tc := range []struct {
			protocol string
			filter   *kg.Graph
		}{{"raw", nil}, {"filtered", filter}} {
			ranker := NewRanker(model, tc.filter)
			for _, workers := range []int{1, 2, wantGroups + 5} {
				label := fmt.Sprintf("%s/%s/workers=%d", name, tc.protocol, workers)
				ranks, scores, groups, blocks, err := ranker.RankTriples(context.Background(), triples, workers, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(ranks) != len(triples) || len(scores) != len(triples) {
					t.Fatalf("%s: %d ranks, %d scores for %d triples", label, len(ranks), len(scores), len(triples))
				}
				if groups != wantGroups || blocks != wantBlocks(workers) {
					t.Errorf("%s: %d groups in %d blocks, want %d in %d", label, groups, blocks, wantGroups, wantBlocks(workers))
				}
				for i, tr := range triples {
					if want := ranker.RankObject(tr); ranks[i] != want {
						t.Fatalf("%s: triple %d (%v): rank %d, per-triple %d", label, i, tr, ranks[i], want)
					}
					if want := model.ScoreAllObjects(tr.S, tr.R, sweep)[tr.O]; scores[i] != want {
						t.Fatalf("%s: triple %d (%v): score %v, its sweep's %v", label, i, tr, scores[i], want)
					}
				}
			}
		}
	}
}

// TestEvaluateSubjectSideMatchesPerTriple holds a both-sides Evaluate to the
// per-triple oracles: every aggregate, bit for bit, must be Aggregate over
// RankObject's ranks followed by RankSubject's, for the six models under
// both protocols, at one worker, two, and
// more workers than (o, r) groups. The test split is schedulerTriples with
// subject and object swapped, so entity 0 is a hub object with every entity
// as a subject; the filter holds it too, so the hub's subjects are all known.
// One level down, each subject-side rank of the swapped list — duplicates
// kept, which a graph cannot hold — must be RankSubject's, through
// RankTriples and subjectBlocks as Evaluate calls them.
func TestEvaluateSubjectSideMatchesPerTriple(t *testing.T) {
	const (
		nEnt = 40
		nRel = 4
		dim  = 12
	)
	test := kg.NewGraph()
	for i := 0; i < nEnt; i++ {
		test.Entities.Intern(fmt.Sprintf("e%d", i))
	}
	for i := 0; i < nRel; i++ {
		test.Relations.Intern(fmt.Sprintf("r%d", i))
	}
	filter := kg.NewGraphWithDicts(test.Entities, test.Relations)
	swapped := schedulerTriples(nEnt)
	list := make([]kg.Triple, len(swapped))
	for i, tr := range swapped {
		list[i] = kg.Triple{S: tr.O, R: tr.R, O: tr.S}
		test.Add(list[i])
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 240; i++ {
		filter.Add(kg.Triple{
			S: kg.EntityID(rng.Intn(nEnt)),
			R: kg.RelationID(rng.Intn(nRel)),
			O: kg.EntityID(rng.Intn(nEnt)),
		})
	}
	filter = kg.Merge(filter, test)

	for _, name := range kge.ModelNames() {
		model, err := kge.New(name, kge.Config{NumEntities: nEnt, NumRelations: nRel, Dim: dim, Seed: 3})
		if err != nil {
			t.Fatalf("new %s: %v", name, err)
		}
		for _, tc := range []struct {
			protocol string
			filter   *kg.Graph
		}{{"raw", nil}, {"filtered", filter}} {
			ranker := NewRanker(model, tc.filter)
			triples := test.Triples()
			want := make([]int, 2*len(triples))
			for i, tr := range triples {
				want[i] = ranker.RankObject(tr)
				want[len(triples)+i] = ranker.RankSubject(tr)
			}
			wantRes := Aggregate(want, evaluateHitsAt)
			wantList := make([]int, len(list))
			for i, tr := range list {
				wantList[i] = ranker.RankSubject(tr)
			}
			for _, workers := range []int{1, 2, len(triples) + 5} {
				label := fmt.Sprintf("%s/%s/workers=%d", name, tc.protocol, workers)
				res := Evaluate(ranker, test, Options{BothSides: true, Workers: workers})
				if math.Float64bits(res.MRR) != math.Float64bits(wantRes.MRR) ||
					math.Float64bits(res.MeanRank) != math.Float64bits(wantRes.MeanRank) || res.N != wantRes.N {
					t.Fatalf("%s: MRR %.17g mean rank %.17g n %d, per-triple %.17g %.17g %d",
						label, res.MRR, res.MeanRank, res.N, wantRes.MRR, wantRes.MeanRank, wantRes.N)
				}
				for _, k := range evaluateHitsAt {
					if res.Hits[k] != wantRes.Hits[k] {
						t.Fatalf("%s: Hits@%d %v, per-triple %v", label, k, res.Hits[k], wantRes.Hits[k])
					}
				}
				ranks, _, _, _, err := ranker.RankTriples(context.Background(), swapped, workers, ranker.subjectBlocks(swapped))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for i, tr := range list {
					if ranks[i] != wantList[i] {
						t.Fatalf("%s: triple %d (%v): subject rank %d, per-triple %d", label, i, tr, ranks[i], wantList[i])
					}
				}
			}
		}
	}
}

// TestSchedulerEmptyAndCancelled pins the two edges: no triples is no work
// and no error, and a cancelled context is an error with no ranks — a
// half-written rank slice holds zeros, and rank 0 passes every TopN filter.
func TestSchedulerEmptyAndCancelled(t *testing.T) {
	model, err := kge.New("distmult", kge.Config{NumEntities: 40, NumRelations: 4, Dim: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ranker := NewRanker(model, nil)

	ranks, scores, groups, blocks, err := ranker.RankTriples(context.Background(), nil, 3, nil)
	if err != nil || len(ranks) != 0 || len(scores) != 0 || groups != 0 || blocks != 0 {
		t.Errorf("empty input: ranks %v scores %v groups %d blocks %d err %v, want nothing and no error",
			ranks, scores, groups, blocks, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ranks, scores, _, _, err := ranker.RankTriples(ctx, schedulerTriples(40), workers, nil)
		if err != context.Canceled {
			t.Errorf("cancelled, workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ranks != nil || scores != nil {
			t.Errorf("cancelled, workers=%d: got %d ranks and %d scores, want nil", workers, len(ranks), len(scores))
		}
	}
}
