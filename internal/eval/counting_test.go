package eval

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
)

// naiveRanks is the reference rankRow is held to: for every object, one
// probe per entity, skipping the object itself and the filtered entities —
// RankObject's loop over a finished sweep. It shares no line with the
// counting pass.
func naiveRanks(scores []float32, objects, filtered []kg.EntityID) []int {
	skip := make([]bool, len(scores))
	for _, f := range filtered {
		skip[f] = true
	}
	ranks := make([]int, len(objects))
	for i, o := range objects {
		target := scores[o]
		greater, equal := 0, 0
		for e, sc := range scores {
			if kg.EntityID(e) == o || skip[e] {
				continue
			}
			switch {
			case sc > target:
				greater++
			case sc == target:
				equal++
			}
		}
		ranks[i] = 1 + greater + equal/2
	}
	return ranks
}

// Row shapes of the counting-pass fuzz target. Each is a way a score sweep
// and its target set can sit relative to the float range the pass indexes.
const (
	shapeSmooth      = iota // Gaussian scores: the trained-table case
	shapeTies               // seven distinct values: heavy ties
	shapeAllEqual           // one value everywhere: a single distinct target
	shapeNaNScores          // NaN among the corruptions, never a target
	shapeNaNAnywhere        // NaN anywhere, targets included
	shapeInf                // ±Inf anywhere, targets included
	shapeSubnormal          // targets a few subnormal steps apart
	shapeUlpWide            // targets a few ulps apart around 1
	shapeMaxFloat           // ±MaxFloat32 among the targets: the range overflows
	shapeOneSided           // +MaxFloat32 the only outlier: a finite, huge range
	shapeClustered          // one far target, every other in the lowest bucket
	shapeWideRange          // targets in [1, 1.001], corruptions out to ±1e30 and ±Inf
	numShapes
)

// countingRow builds one fuzz case: an n-score sweep of the given shape, k
// candidate objects (duplicates allowed, every entity when k == n) and a
// short filtered list.
func countingRow(seed int64, n, k int, shape uint8) (scores []float32, objects, filtered []kg.EntityID) {
	rng := rand.New(rand.NewSource(seed))
	scores = make([]float32, n)
	for i := range scores {
		scores[i] = float32(rng.NormFloat64())
	}
	pick := func() int { return rng.Intn(n) }
	inf := float32(math.Inf(1))
	forced := []float32(nil) // values planted at the first objects' entities
	switch shape % numShapes {
	case shapeTies:
		for i := range scores {
			scores[i] = 0.25 * float32(rng.Intn(7))
		}
	case shapeAllEqual:
		for i := range scores {
			scores[i] = 0.5
		}
	case shapeNaNScores:
		// Odd entities may be NaN; objects are drawn from the even ones.
		for i := 1; i < n; i += 2 {
			if rng.Intn(3) == 0 {
				scores[i] = float32(math.NaN())
			}
		}
		pick = func() int { return rng.Intn((n+1)/2) * 2 }
	case shapeNaNAnywhere:
		for i := range scores {
			if rng.Intn(5) == 0 {
				scores[i] = float32(math.NaN())
			}
		}
	case shapeInf:
		for i := range scores {
			switch rng.Intn(8) {
			case 0:
				scores[i] = inf
			case 1:
				scores[i] = -inf
			}
		}
	case shapeSubnormal:
		for i := range scores {
			scores[i] = float32(rng.Intn(40)) * math.SmallestNonzeroFloat32
		}
	case shapeUlpWide:
		for i := range scores {
			scores[i] = math.Float32frombits(math.Float32bits(1) + uint32(rng.Intn(40)))
		}
	case shapeMaxFloat:
		forced = []float32{math.MaxFloat32, -math.MaxFloat32}
	case shapeOneSided:
		for i := range scores {
			if scores[i] < 0 {
				scores[i] = -scores[i]
			}
		}
		forced = []float32{math.MaxFloat32}
	case shapeClustered:
		for i := range scores {
			scores[i] = rng.Float32() * 1e-3
		}
		forced = []float32{1e6}
	case shapeWideRange:
		// Even entities sit in [1, 1.001] and the objects are drawn from
		// them; odd ones spread over ±1e-3..±1e30, an eighth of them ±Inf.
		for i := range scores {
			switch {
			case i%2 == 0:
				scores[i] = 1 + 1e-3*rng.Float32()
			case rng.Intn(8) == 0:
				scores[i] = inf * float32(1-2*rng.Intn(2))
			default:
				scores[i] = float32((1 - 2*float64(rng.Intn(2))) * math.Pow(10, -3+33*rng.Float64()))
			}
		}
		pick = func() int { return rng.Intn((n+1)/2) * 2 }
	}

	objects = make([]kg.EntityID, k)
	if k == n {
		for i, o := range rng.Perm(n) {
			objects[i] = kg.EntityID(o)
		}
	} else {
		for i := range objects {
			objects[i] = kg.EntityID(pick())
		}
	}
	for i, v := range forced {
		if i < len(objects) {
			scores[objects[i]] = v
		}
	}
	// Distinct, like the (s, r) adjacency it stands for; half the time it
	// holds a target that is itself a known triple.
	for _, e := range rng.Perm(n)[:rng.Intn(min(n, 8))] {
		filtered = append(filtered, kg.EntityID(e))
	}
	if len(filtered) > 0 && rng.Intn(2) == 0 && !slices.Contains(filtered, objects[0]) {
		filtered[0] = objects[0]
	}
	return scores, objects, filtered
}

// FuzzCountingPass holds rankRow to the naive per-target count on every row
// shape above, for group sizes from below the small-group cutoff up to the
// whole vocabulary: equal ranks, no panic. Rows with a NaN *target* are only
// required not to panic — NaN has no place in a sorted target list, and the
// counting pass has never promised the naive count there. The seed corpus
// runs under plain `go test`.
func FuzzCountingPass(f *testing.F) {
	for shape := uint8(0); shape < numShapes; shape++ {
		for _, n := range []uint16{64, 1500} {
			for _, k := range []uint16{1, 2, 3, 5, 8, 30, 100, n} {
				f.Add(int64(shape)*31+int64(k), n, k, shape)
			}
		}
	}
	var r Ranker
	var bufs batchBufs
	f.Fuzz(func(t *testing.T, seed int64, n, k uint16, shape uint8) {
		// 5 ≤ nn ≤ 4004 entities, 1 ≤ kk ≤ nn objects (k == n: all of them).
		nn := 5 + int(n-5)%4000
		kk := 1 + int(k-1)%nn
		scores, objects, filtered := countingRow(seed, nn, kk, shape)
		bufs.scratch(len(objects))
		got := r.rankRow(scores, objects, filtered, &bufs)
		if len(got) != len(objects) {
			t.Fatalf("rankRow returned %d ranks for %d objects", len(got), len(objects))
		}
		for _, o := range objects {
			if s := scores[o]; s != s {
				return
			}
		}
		want := naiveRanks(scores, objects, filtered)
		for i, o := range objects {
			if got[i] != want[i] {
				t.Fatalf("shape %d n=%d k=%d seed=%d: rank(o=%d, score %g) = %d, naive count %d",
					shape%numShapes, nn, kk, seed, o, scores[o], got[i], want[i])
			}
		}
	})
}

// TestCountingPassKG20kRows holds rankRow to the naive count on rows of the
// benchmark's vocabulary, 20 000 entities, which FuzzCountingPass's folded
// sizes never reach: every row shape, at the group sizes on both sides of
// the small-group cutoff and the large ones discovery produces. A NaN
// target is exempt, as in the fuzz target.
func TestCountingPassKG20kRows(t *testing.T) {
	var r Ranker
	var bufs batchBufs
	for shape := uint8(0); shape < numShapes; shape++ {
		for _, k := range []int{1, 2, 3, 30, 100, 500} {
			scores, objects, filtered := countingRow(int64(shape)*7+int64(k), 20000, k, shape)
			bufs.scratch(k)
			got := r.rankRow(scores, objects, filtered, &bufs)
			if slices.ContainsFunc(objects, func(o kg.EntityID) bool { return scores[o] != scores[o] }) {
				continue
			}
			want := naiveRanks(scores, objects, filtered)
			for i, o := range objects {
				if got[i] != want[i] {
					t.Fatalf("shape %d k=%d: rank(o=%d, score %g) = %d, naive count %d",
						shape, k, o, scores[o], got[i], want[i])
				}
			}
		}
	}
}

// TestCountingPassAllocations: on warm scratch buffers the counting pass
// allocates the returned rank slice and nothing else — at 4 000 entities and
// at the benchmark's 20 000, with a filtered list, so the bucket keys and the
// set-aside scores come from batchBufs. One batchBufs then serves a 64-entity
// row and a 4 004-entity one in turn (four chunks, the last one ragged), with
// the naive count's ranks on both.
func TestCountingPassAllocations(t *testing.T) {
	var r Ranker
	warm := func(bufs *batchBufs, seed int64, n int) {
		t.Helper()
		scores, objects, filtered := countingRow(seed, n, 30, shapeSmooth)
		if len(filtered) == 0 {
			t.Fatalf("n=%d: the row has no filtered entities", n)
		}
		bufs.scratch(len(objects))
		if got, want := r.rankRow(scores, objects, filtered, bufs), naiveRanks(scores, objects, filtered); !slices.Equal(got, want) {
			t.Fatalf("n=%d: ranks %v, naive count %v", n, got, want)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			r.rankRow(scores, objects, filtered, bufs)
		}); allocs != 1 {
			t.Errorf("n=%d: rankRow allocated %v objects per call on warm buffers, want 1 (the ranks)", n, allocs)
		}
	}
	for _, n := range []int{4000, 20000} {
		warm(new(batchBufs), 3, n)
	}
	var shared batchBufs
	for _, n := range []int{64, 4004} {
		warm(&shared, 2, n)
	}
}

// BenchmarkRankRow times one counting pass over a kg20k-sized sweep for the
// group sizes discovery produces (the benchmark fixture's mean group is ~30).
func BenchmarkRankRow(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4, 5, 6, 8, 30, 100, 500} {
		b.Run(fmt.Sprintf("n=20000/k=%d", k), func(b *testing.B) {
			scores, objects, filtered := countingRow(1, 20000, k, shapeSmooth)
			var r Ranker
			var bufs batchBufs
			bufs.scratch(len(objects))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.rankRow(scores, objects, filtered, &bufs)
			}
		})
	}
}

// TestRankObjectsAllocations: ranking one object on warm buffers, the /rank
// request's shape, allocates RankObjectsBatch's two result slices (the
// block's slice of groups and the one group's ranks) and nothing else: the
// block's subjects, the score matrix, the sweep's query and the kernels'
// spread query all come from pools. The race detector drops pooled buffers at
// random, so the count only holds in a plain build.
func TestRankObjectsAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector drops sync.Pool buffers at random")
	}
	model, err := kge.New("distmult", kge.Config{NumEntities: 2000, NumRelations: 3, Dim: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	filter := kg.NewGraph()
	for i := 0; i < 2000; i++ {
		filter.Entities.Intern(fmt.Sprint("e", i))
	}
	for i := 0; i < 3; i++ {
		filter.Relations.Intern(fmt.Sprint("r", i))
	}
	filter.Add(kg.Triple{S: 1, R: 2, O: 9})
	objects := []kg.EntityID{5}
	for _, r := range []*Ranker{NewRanker(model, nil), NewRanker(model, filter)} {
		r.RankObjects(1, 2, objects)
		if allocs := testing.AllocsPerRun(100, func() { r.RankObjects(1, 2, objects) }); allocs != 2 {
			t.Errorf("filtered=%v: RankObjects allocated %v objects per call on warm buffers, want 2 (its result slices)",
				r.filter != nil, allocs)
		}
	}
}
