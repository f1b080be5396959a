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
// per-triple RankObject, for every model under both protocols at one worker,
// two, and more workers than groups. The oracle shares no line with the
// grouping or the counting pass.
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
		for _, tc := range []struct {
			protocol string
			filter   *kg.Graph
		}{{"raw", nil}, {"filtered", filter}} {
			ranker := NewRanker(model, tc.filter)
			for _, workers := range []int{1, 2, wantGroups + 5} {
				label := fmt.Sprintf("%s/%s/workers=%d", name, tc.protocol, workers)
				ranks, groups, blocks, err := ranker.RankTriples(context.Background(), triples, workers, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(ranks) != len(triples) {
					t.Fatalf("%s: %d ranks for %d triples", label, len(ranks), len(triples))
				}
				if groups != wantGroups || blocks != wantBlocks(workers) {
					t.Errorf("%s: %d groups in %d blocks, want %d in %d", label, groups, blocks, wantGroups, wantBlocks(workers))
				}
				for i, tr := range triples {
					if want := ranker.RankObject(tr); ranks[i] != want {
						t.Fatalf("%s: triple %d (%v): rank %d, per-triple %d", label, i, tr, ranks[i], want)
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
				ranks, _, _, err := ranker.RankTriples(context.Background(), swapped, workers, ranker.subjectBlocks(swapped))
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

	ranks, groups, blocks, err := ranker.RankTriples(context.Background(), nil, 3, nil)
	if err != nil || len(ranks) != 0 || groups != 0 || blocks != 0 {
		t.Errorf("empty input: ranks %v groups %d blocks %d err %v, want nothing and no error",
			ranks, groups, blocks, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ranks, _, _, err := ranker.RankTriples(ctx, schedulerTriples(40), workers, nil)
		if err != context.Canceled {
			t.Errorf("cancelled, workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ranks != nil {
			t.Errorf("cancelled, workers=%d: got %d ranks, want nil", workers, len(ranks))
		}
	}
}

// TestPooledWorkingSetBound pins the bound on ranking's pooled working set:
// whatever the block shapes, no pooled score matrix holds more than
// max(DefaultBatchBudgetBytes/4, |E|) floats — RankTriples packs at most
// DefaultBatchBudgetBytes/(4·|E|) rows (at least one) per block, and
// RankObjects ranks one row. The mix is skewed the way a hub makes it: one
// relation of thousands of groups, far more than one block holds, then a
// tail of one-group relations, ranked by RankTriples at one and three
// workers, by a both-sides Evaluate and by RankObjects under both protocols.
// Each path's pooled buffers are drained and measured after it runs. The
// race detector drops pooled buffers at random, so the check runs in a plain
// build only.
func TestPooledWorkingSetBound(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector drops sync.Pool buffers at random")
	}
	const (
		nEnt      = 8192
		nRel      = 6
		hubGroups = 2000
	)
	limit := max(DefaultBatchBudgetBytes/4, nEnt)
	if rows := DefaultBatchBudgetBytes / (4 * nEnt); rows*8 > hubGroups {
		t.Fatalf("a block of %d rows is not far below the hub's %d groups — test mis-sized", rows, hubGroups)
	}
	model, err := kge.New("distmult", kge.Config{NumEntities: nEnt, NumRelations: nRel, Dim: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	test := kg.NewGraph()
	for i := 0; i < nEnt; i++ {
		test.Entities.Intern(fmt.Sprintf("e%d", i))
	}
	for i := 0; i < nRel; i++ {
		test.Relations.Intern(fmt.Sprintf("r%d", i))
	}
	var triples []kg.Triple
	for g := 0; g < hubGroups; g++ {
		for j := 0; j < 3; j++ {
			triples = append(triples, kg.Triple{S: kg.EntityID(g), R: 0, O: kg.EntityID((7*g + 13*j) % nEnt)})
		}
	}
	for r := 1; r < nRel; r++ {
		triples = append(triples, kg.Triple{S: kg.EntityID(r), R: kg.RelationID(r), O: kg.EntityID(2 * r)})
	}
	for _, tr := range triples {
		test.Add(tr)
	}
	filter := kg.NewGraphWithDicts(test.Entities, test.Relations)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		filter.Add(kg.Triple{
			S: kg.EntityID(rng.Intn(nEnt)),
			R: kg.RelationID(rng.Intn(nRel)),
			O: kg.EntityID(rng.Intn(nEnt)),
		})
	}
	filter = kg.Merge(filter, test)

	seen := 0
	drain := func(label string, r *Ranker) {
		for {
			bufs, _ := r.batchPool.Get().(*batchBufs)
			if bufs == nil {
				return
			}
			seen++
			if cap(bufs.data) > limit {
				t.Errorf("%s: a pooled score matrix holds %d floats, bound %d", label, cap(bufs.data), limit)
			}
		}
	}
	for _, tc := range []struct {
		protocol string
		filter   *kg.Graph
	}{{"raw", nil}, {"filtered", filter}} {
		ranker := NewRanker(model, tc.filter)
		for _, workers := range []int{1, 3} {
			if _, _, _, err := ranker.RankTriples(context.Background(), triples, workers, nil); err != nil {
				t.Fatal(err)
			}
		}
		drain(tc.protocol+"/RankTriples", ranker)
		Evaluate(ranker, test, Options{BothSides: true, Workers: 3})
		drain(tc.protocol+"/Evaluate", ranker)
		ranker.RankObjects(0, 0, []kg.EntityID{0, 13, 26})
		drain(tc.protocol+"/RankObjects", ranker)
	}
	if seen == 0 {
		t.Skip("sync.Pool dropped every buffer: nothing to measure")
	}
}
