package repro

// One benchmark per paper artifact (Table 1, Figures 2-10, the CLUSTERING
// SQUARES exclusion) plus ablation benchmarks for the design choices listed
// in DESIGN.md §5. The per-artifact benchmarks exercise exactly the
// computation that regenerates the artifact, at a reduced scale so `go test
// -bench=.` completes on a laptop; `cmd/repro` runs the full-scale version.

import (
	"context"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graphstats"
	"repro/internal/harness"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/prune"
	"repro/internal/sample"
	"repro/internal/synth"
	"repro/internal/train"
)

// benchScale shrinks the simulated datasets for benchmarking.
const benchScale = 150

var (
	benchOnce  sync.Once
	benchDS    *kg.Dataset
	benchModel kge.Trainable
)

// benchSetup trains one small TransE model on fb15k237-sim once per `go
// test` process; every artifact benchmark reuses it so the measured loop is
// the artifact computation, not training.
func benchSetup(b *testing.B) (*kg.Dataset, kge.Trainable) {
	b.Helper()
	benchOnce.Do(func() {
		ds, err := synth.Generate(synth.FB15K237Sim(benchScale))
		if err != nil {
			b.Fatalf("generate: %v", err)
		}
		m, err := kge.New("transe", kge.Config{
			NumEntities:  ds.Train.Entities.Len(),
			NumRelations: ds.Train.Relations.Len(),
			Dim:          32,
			Seed:         1,
		})
		if err != nil {
			b.Fatalf("model: %v", err)
		}
		if _, err := train.Run(context.Background(), m, ds, train.Config{
			Epochs: 5, BatchSize: 256, Seed: 1,
		}); err != nil {
			b.Fatalf("train: %v", err)
		}
		benchDS, benchModel = ds, m
	})
	if benchDS == nil {
		b.Fatal("bench setup failed")
	}
	return benchDS, benchModel
}

func benchDiscover(b *testing.B, strategyName string, topN, maxCand int, cacheWeights bool) *core.Result {
	b.Helper()
	ds, m := benchSetup(b)
	strategy, err := core.StrategyByName(strategyName)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.DiscoverFacts(context.Background(), m, ds.Train, strategy, core.Options{
		TopN:          topN,
		MaxCandidates: maxCand,
		Seed:          1,
		CacheWeights:  cacheWeights,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1Metadata regenerates Table 1: the four dataset presets and
// their metadata rows.
func BenchmarkTable1Metadata(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cfg := range synth.AllPresets(400) {
			ds, err := synth.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			_ = ds.Metadata()
		}
	}
}

// BenchmarkFig2Runtime measures one full discovery run per strategy group
// representative — the quantity Figure 2 plots.
func BenchmarkFig2Runtime(b *testing.B) {
	for _, strat := range []string{"uniform_random", "cluster_triangles"} {
		b.Run(strat, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchDiscover(b, strat, 100, 100, false)
			}
		})
	}
}

// BenchmarkFig3ClusteringDist measures the clustering-coefficient
// distribution computation behind Figure 3.
func BenchmarkFig3ClusteringDist(b *testing.B) {
	ds, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graphstats.BuildUndirected(ds.Train)
		coeffs := u.LocalClustering(nil)
		graphstats.Histogram(coeffs, 20)
		_ = graphstats.Mean(coeffs)
	}
}

// BenchmarkFig4MRR measures discovery plus the MRR aggregation of Figure 4.
func BenchmarkFig4MRR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchDiscover(b, "entity_frequency", 100, 100, false)
		_ = res.MRR()
	}
}

// BenchmarkFig5NodeSeries measures the per-node triangle and clustering
// series (and their correlation) behind Figure 5.
func BenchmarkFig5NodeSeries(b *testing.B) {
	ds, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graphstats.BuildUndirected(ds.Train)
		tri := u.Triangles()
		coeffs := u.LocalClustering(tri)
		triF := make([]float64, len(tri))
		for j, t := range tri {
			triF[j] = float64(t)
		}
		_, _ = graphstats.PearsonCorrelation(triF, coeffs)
	}
}

// BenchmarkFig6Efficiency measures discovery plus the facts/hour computation
// of Figure 6.
func BenchmarkFig6Efficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchDiscover(b, "graph_degree", 100, 100, false)
		_ = res.Stats.FactsPerHour(len(res.Facts))
	}
}

// BenchmarkFig7RuntimeGrid measures discovery at the two extreme
// max_candidates grid values — Figure 7's x-axis (runtime is linear in it).
func BenchmarkFig7RuntimeGrid(b *testing.B) {
	for _, mc := range []int{50, 200} {
		b.Run(benchName("max_cand", mc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchDiscover(b, "cluster_triangles", 100, mc, false)
			}
		})
	}
}

// BenchmarkFig8MRRGrid measures discovery at the two extreme top_n values —
// Figure 8's x-axis (MRR falls as top_n grows; runtime does not).
func BenchmarkFig8MRRGrid(b *testing.B) {
	for _, tn := range []int{25, 200} {
		b.Run(benchName("top_n", tn), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := benchDiscover(b, "cluster_triangles", tn, 100, false)
				_ = res.MRR()
			}
		})
	}
}

// BenchmarkFig9EfficiencyTopN regenerates Figure 9's series: efficiency as
// a function of top_n for CLUSTERING TRIANGLES and UNIFORM RANDOM.
func BenchmarkFig9EfficiencyTopN(b *testing.B) {
	for _, strat := range []string{"cluster_triangles", "uniform_random"} {
		b.Run(strat, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, tn := range []int{25, 100} {
					res := benchDiscover(b, strat, tn, 100, false)
					_ = res.Stats.FactsPerHour(len(res.Facts))
				}
			}
		})
	}
}

// BenchmarkFig10EfficiencyMaxCand regenerates Figure 10's series:
// efficiency as a function of max_candidates at fixed top_n.
func BenchmarkFig10EfficiencyMaxCand(b *testing.B) {
	for _, strat := range []string{"cluster_triangles", "uniform_random"} {
		b.Run(strat, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, mc := range []int{50, 150} {
					res := benchDiscover(b, strat, 100, mc, false)
					_ = res.Stats.FactsPerHour(len(res.Facts))
				}
			}
		})
	}
}

// BenchmarkSquaresClusteringCost measures the per-relation weight
// computation of every strategy including CLUSTERING SQUARES — experiment
// X1, which re-measures the cost the paper gave for excluding the squares
// strategy.
func BenchmarkSquaresClusteringCost(b *testing.B) {
	ds, _ := benchSetup(b)
	probe := ds.Train.RelationIDs()[0]
	for _, name := range core.StrategyNames() {
		b.Run(name, func(b *testing.B) {
			strategy, err := core.StrategyByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				strategy.Weights(ds.Train, probe, strategy.Statistic(ds.Train))
			}
		})
	}
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// BenchmarkAblationBatchedScoring compares the ScoreAllObjects sweep with a
// per-triple scoring loop for ranking one candidate against all corruptions.
func BenchmarkAblationBatchedScoring(b *testing.B) {
	_, m := benchSetup(b)
	out := make([]float32, m.NumEntities())
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.ScoreAllObjects(1, 0, out)
		}
	})
	b.Run("per-triple", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for o := 0; o < m.NumEntities(); o++ {
				out[o] = m.Score(kg.Triple{S: 1, R: 0, O: kg.EntityID(o)})
			}
		}
	})
}

// BenchmarkAblationGroupedRanking compares the discovery ranking stage's
// two schedules on a DistMult mesh grid: one RankObject (a full
// ScoreAllObjects sweep) per candidate, versus one RankObjects sweep per
// (s, r) group. The mesh grid of √max_candidates subjects × objects means
// the grouped schedule runs ~√max_candidates sweeps instead of
// max_candidates — the asymptotic win recorded in EXPERIMENTS.md.
func BenchmarkAblationGroupedRanking(b *testing.B) {
	const nEnt, nRel, dim = 2000, 4, 64
	m, err := kge.New("distmult", kge.Config{
		NumEntities: nEnt, NumRelations: nRel, Dim: dim, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ranker := eval.NewRanker(m, nil)
	for _, maxCand := range []int{100, 500, 2000} {
		k := int(math.Sqrt(float64(maxCand)))
		if k*k < maxCand {
			k++
		}
		candidates := make([]kg.Triple, 0, maxCand)
		for s := 0; s < k && len(candidates) < maxCand; s++ {
			for o := 0; o < k && len(candidates) < maxCand; o++ {
				candidates = append(candidates, kg.Triple{S: kg.EntityID(s), R: 0, O: kg.EntityID(o)})
			}
		}
		groups := make(map[kg.EntityID][]kg.EntityID, k)
		for _, t := range candidates {
			groups[t.S] = append(groups[t.S], t.O)
		}
		b.Run("per-candidate/"+strconv.Itoa(maxCand), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, t := range candidates {
					_ = ranker.RankObject(t)
				}
			}
		})
		b.Run("grouped/"+strconv.Itoa(maxCand), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for s, objects := range groups {
					_ = ranker.RankObjects(s, 0, objects)
				}
			}
			b.ReportMetric(float64(len(candidates)-len(groups)), "sweeps-saved/op")
		})
	}
}

// batchBenchModel builds the paper-scale ranking fixture once per test
// process: an untrained DistMult over 50k entities at d=64 (ranking cost
// does not depend on training, only on shapes).
var (
	batchBenchOnce  sync.Once
	batchBenchModel kge.Trainable
	batchBenchErr   error
)

func batchBench(b *testing.B) kge.Trainable {
	b.Helper()
	batchBenchOnce.Do(func() {
		batchBenchModel, batchBenchErr = kge.New("distmult", kge.Config{
			NumEntities: 50000, NumRelations: 4, Dim: 64, Seed: 1,
		})
	})
	if batchBenchErr != nil {
		b.Fatal(batchBenchErr)
	}
	return batchBenchModel
}

// BenchmarkAblationBatchedRanking is the PR-5 tentpole ablation: the grouped
// scheduler (one RankObjects sweep per (s, r) group) against the
// relation-blocked batched scheduler (one RankObjectsBatch per cache-budget
// block: a tiled matrix–matrix sweep). Both rank each row with the same
// counting pass — when the ablation was written the grouped side still
// sorted every sweep, and the bar was batched ≥ 2× faster at
// max_candidates = 500; what it measures now is the sweep batching alone.
// Candidates form the same ⌈√max_candidates⌉-subject mesh grid
// DiscoverFacts generates, at the paper's vocabulary scale (|E| = 50000,
// d = 64). Both schedules return identical ranks.
func BenchmarkAblationBatchedRanking(b *testing.B) {
	m := batchBench(b)
	ranker := eval.NewRanker(m, nil)
	const rel = kg.RelationID(0)
	// Block size matches eval's DefaultBatchBudgetBytes schedule:
	// 4 MiB / (4 B × 50000 entities) = 20 groups per block.
	blockRows := eval.DefaultBatchBudgetBytes / (4 * 50000)
	for _, maxCand := range []int{100, 500} {
		k := int(math.Sqrt(float64(maxCand)))
		if k*k < maxCand {
			k++
		}
		groups := make([]eval.Group, 0, k)
		total := 0
		for s := 0; s < k && total < maxCand; s++ {
			g := eval.Group{S: kg.EntityID(s)}
			for o := 0; o < k && total < maxCand; o++ {
				g.Objects = append(g.Objects, kg.EntityID(o))
				total++
			}
			groups = append(groups, g)
		}
		b.Run("grouped/"+strconv.Itoa(maxCand), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, g := range groups {
					_ = ranker.RankObjects(g.S, rel, g.Objects)
				}
			}
		})
		b.Run("batched/"+strconv.Itoa(maxCand), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < len(groups); lo += blockRows {
					hi := lo + blockRows
					if hi > len(groups) {
						hi = len(groups)
					}
					_ = ranker.RankObjectsBatch(rel, groups[lo:hi])
				}
			}
		})
	}
}

// BenchmarkPrunedRanking is the PR-6 tentpole ablation: the dense
// relation-blocked batch scheduler against the IVF/int8 prescreen path, at
// the paper's vocabulary scale (|E| = 50000) for d = 64 and 128. The entity
// table is overwritten with clustered synthetic vectors — Xavier-random rows
// have no cluster structure for an IVF index to exploit, while real trained
// embeddings famously do: 64 Gaussian centers with σ = 0.03 within-cluster
// noise, assigned in contiguous id ranges (entity ids follow import order,
// and imports are type-blocked, so similar entities share id ranges).
// Candidates form the same mesh grid DiscoverFacts generates at
// max_candidates = 500, with subjects and objects spread across the full id
// range, ranked at the paper's top_n = 500 and at top_n = 100 (the frontier
// size M = top_n is what pruned ranking's cost scales with). The exact
// sub-benchmark returns byte-identical ranks to off (asserted by
// TestDiscoverFactsPrunedEquivalence and the ci.sh gate, not here); approx
// reports its measured precision against the dense keep set — its recall is
// 1.0 by construction, because the capped probe budget can only under-count
// outscoring corruptions, so every dense-kept fact is also kept.
func BenchmarkPrunedRanking(b *testing.B) {
	const (
		nEnt    = 50000
		maxCand = 500
		centers = 64
	)
	for _, dim := range []int{64, 128} {
		m, err := kge.New("distmult", kge.Config{
			NumEntities: nEnt, NumRelations: 4, Dim: dim, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		sw := m.(kge.ObjectSweeper)
		ent := sw.SweepEntityTable()
		rng := rand.New(rand.NewSource(17))
		centroid := make([]float32, centers*dim)
		for i := range centroid {
			centroid[i] = float32(rng.NormFloat64())
		}
		for o := 0; o < ent.Rows; o++ {
			row := ent.Row(o)
			ci := o * centers / nEnt
			c := centroid[ci*dim : (ci+1)*dim]
			for j := range row {
				row[j] = c[j] + 0.03*float32(rng.NormFloat64())
			}
		}
		ix, err := prune.Build(sw, kge.Fingerprint(m), prune.Params{})
		if err != nil {
			b.Fatal(err)
		}
		ranker := eval.NewRanker(m, nil)
		const rel = kg.RelationID(0)
		blockRows := eval.DefaultBatchBudgetBytes / (4 * nEnt)

		k := int(math.Sqrt(float64(maxCand)))
		if k*k < maxCand {
			k++
		}
		groups := make([]eval.Group, 0, k)
		total := 0
		for s := 0; s < k && total < maxCand; s++ {
			g := eval.Group{S: kg.EntityID(s * (nEnt / k))}
			for o := 0; o < k && total < maxCand; o++ {
				g.Objects = append(g.Objects, kg.EntityID(o*(nEnt/k)+1))
				total++
			}
			groups = append(groups, g)
		}

		for _, topN := range []int{100, 500} {
			// Precision of the approx keep set, measured once outside the timers.
			denseRanks := ranker.RankObjectsBatch(rel, groups)
			approxRanks, _ := ranker.RankObjectsPruned(rel, groups, topN, eval.PruneConfig{Index: ix})
			denseKept, approxKept := 0, 0
			for gi := range denseRanks {
				for i := range denseRanks[gi] {
					if denseRanks[gi][i] <= topN {
						denseKept++
					}
					if approxRanks[gi][i] <= topN {
						approxKept++
					}
				}
			}
			precision := 1.0
			if approxKept > 0 {
				precision = float64(denseKept) / float64(approxKept)
			}

			tag := "d=" + strconv.Itoa(dim) + "/top_n=" + strconv.Itoa(topN)
			b.Run(tag+"/off", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < len(groups); lo += blockRows {
						hi := lo + blockRows
						if hi > len(groups) {
							hi = len(groups)
						}
						_ = ranker.RankObjectsBatch(rel, groups[lo:hi])
					}
				}
			})
			b.Run(tag+"/exact", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, _ = ranker.RankObjectsPruned(rel, groups, topN, eval.PruneConfig{Index: ix, Exact: true})
				}
			})
			b.Run(tag+"/approx", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, _ = ranker.RankObjectsPruned(rel, groups, topN, eval.PruneConfig{Index: ix})
				}
				b.ReportMetric(precision, "precision")
			})
		}
	}
}

// BenchmarkAblationSamplerAlias compares the alias method with inverse-CDF
// binary search for weighted draws.
func BenchmarkAblationSamplerAlias(b *testing.B) {
	weights := make([]float64, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range weights {
		weights[i] = rng.Float64()
	}
	alias, err := sample.NewAlias(weights)
	if err != nil {
		b.Fatal(err)
	}
	cdf, err := sample.NewCDF(weights)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("alias", func(b *testing.B) {
		r := rand.New(rand.NewSource(2))
		for i := 0; i < b.N; i++ {
			alias.Draw(r)
		}
	})
	b.Run("cdf", func(b *testing.B) {
		r := rand.New(rand.NewSource(2))
		for i := 0; i < b.N; i++ {
			cdf.Draw(r)
		}
	})
}

// BenchmarkAblationFilteredRanking compares raw and filtered candidate
// ranking.
func BenchmarkAblationFilteredRanking(b *testing.B) {
	ds, m := benchSetup(b)
	t := ds.Test.Triples()[0]
	b.Run("raw", func(b *testing.B) {
		r := eval.NewRanker(m, nil)
		for i := 0; i < b.N; i++ {
			r.RankObject(t)
		}
	})
	b.Run("filtered", func(b *testing.B) {
		r := eval.NewRanker(m, ds.All())
		for i := 0; i < b.N; i++ {
			r.RankObject(t)
		}
	})
}

// BenchmarkAblationTriangleCounting compares the rank-ordered counter, which
// meets each triangle once at its middle corner (Σ_a C(|F(a)|, 2) checks,
// 544 108 on the benchmark's 20 000-entity fixture), with the naive
// neighbour-pair counter.
func BenchmarkAblationTriangleCounting(b *testing.B) {
	ds, _ := benchSetup(b)
	u := graphstats.BuildUndirected(ds.Train)
	b.Run("forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u.Triangles()
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u.TrianglesNaive()
		}
	})
}

// BenchmarkAblationWeightCaching compares Algorithm 1's faithful
// per-relation statistic recomputation with cross-relation memoization.
func BenchmarkAblationWeightCaching(b *testing.B) {
	b.Run("recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchDiscover(b, "cluster_triangles", 100, 50, false)
		}
	})
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchDiscover(b, "cluster_triangles", 100, 50, true)
		}
	})
}

// BenchmarkAblationRulePruning compares the exhaustive baseline with and
// without CHAI-style candidate pruning rules on one relation.
func BenchmarkAblationRulePruning(b *testing.B) {
	ds, m := benchSetup(b)
	rel := ds.Train.RelationIDs()[0]
	b.Run("no-rules", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.ExhaustiveDiscover(context.Background(), m, ds.Train, core.ExhaustiveOptions{
				TopN: 50, Relations: []kg.RelationID{rel},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rules", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.ExhaustiveDiscover(context.Background(), m, ds.Train, core.ExhaustiveOptions{
				TopN: 50, Relations: []kg.RelationID{rel}, Rules: true,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtensionStrategies measures the future-work exploration
// strategies against the paper's GRAPH DEGREE.
func BenchmarkExtensionStrategies(b *testing.B) {
	for _, name := range []string{"graph_degree", "inverse_degree", "mixed_exploration"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds, m := benchSetup(b)
				strategy, err := core.StrategyByName(name)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.DiscoverFacts(context.Background(), m, ds.Train, strategy, core.Options{
					TopN: 100, MaxCandidates: 100, Seed: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelScore measures single-triple scoring per model.
func BenchmarkModelScore(b *testing.B) {
	for _, name := range kge.ModelNames() {
		b.Run(name, func(b *testing.B) {
			m, err := kge.New(name, kge.Config{NumEntities: 1000, NumRelations: 20, Dim: 32, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			t := kg.Triple{S: 1, R: 2, O: 3}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Score(t)
			}
		})
	}
}

// BenchmarkTrainEpoch measures one training epoch on the tiny dataset.
func BenchmarkTrainEpoch(b *testing.B) {
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"transe", "distmult", "conve"} {
		b.Run(name, func(b *testing.B) {
			m, err := kge.New(name, kge.Config{
				NumEntities:  ds.Train.Entities.Len(),
				NumRelations: ds.Train.Relations.Len(),
				Dim:          16,
				Seed:         1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := train.Run(context.Background(), m, ds, train.Config{
					Epochs: 1, BatchSize: 128, Seed: int64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHarnessTable1 measures the harness path that renders Table 1.
func BenchmarkHarnessTable1(b *testing.B) {
	r := harness.NewRunner(harness.Config{Scale: 400, Dim: 8, Epochs: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Table1(io.Discard, ""); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}

// --- Training-throughput benchmark (batched vs scalar kernels) ---

var (
	trainBenchOnce sync.Once
	trainBenchDS   *kg.Dataset
)

// trainingBenchDataset builds the throughput fixture once per process: a
// 50k-entity synthetic graph (the regime where KvsAll's per-context
// all-entity sweep dominates training) whose training split is cut down to
// 512 triples sharing the full dictionaries, so one epoch scores 512
// contexts against all 50k entities without taking minutes on the scalar
// path.
func trainingBenchDataset(b *testing.B) *kg.Dataset {
	b.Helper()
	trainBenchOnce.Do(func() {
		g, err := synth.GenerateGraph(synth.Config{
			Name: "train-bench", NumEntities: 50000, NumRelations: 12,
			NumTriples: 50000, NumTypes: 8, EntityZipf: 0.8, RelationZipf: 0.5,
			ClosureProb: 0.2, NoiseProb: 0.05, Seed: 13,
		})
		if err != nil {
			return
		}
		sub := kg.NewGraphWithDicts(g.Entities, g.Relations)
		for _, t := range g.Triples()[:512] {
			sub.Add(t)
		}
		trainBenchDS = &kg.Dataset{
			Name:  "train-bench",
			Train: sub,
			Valid: kg.NewGraphWithDicts(g.Entities, g.Relations),
			Test:  kg.NewGraphWithDicts(g.Entities, g.Relations),
		}
	})
	if trainBenchDS == nil {
		b.Fatal("training bench fixture generation failed")
	}
	return trainBenchDS
}

// BenchmarkTrainingThroughput measures one DistMult training epoch per
// iteration at |E| = 50k, d = 64, under both objectives. examples/s counts
// contexts for KvsAll and positive triples for negsample. The sub-benchmark
// names keep their "/batched" suffix: bench/README.md maps them to ledger
// names.
//
// Every iteration trains a freshly initialized model. The model is built once
// and its initial parameters are copied back before each epoch, outside the
// timer: b.StopTimer hides set-up from ns/op but not from a CPU profile, and
// building a model per iteration (a 50k×64 XavierInit, several times one
// negative-sampling epoch) put initialization, not training, at the top of
// the profile.
func BenchmarkTrainingThroughput(b *testing.B) {
	ds := trainingBenchDataset(b)
	run := func(b *testing.B, kvsall bool) {
		b.Helper()
		m, err := kge.New("distmult", kge.Config{
			NumEntities:  ds.Train.Entities.Len(),
			NumRelations: ds.Train.Relations.Len(),
			Dim:          64,
			Seed:         1,
		})
		if err != nil {
			b.Fatal(err)
		}
		params := m.Params().List()
		initial := make([][]float32, len(params))
		for i, p := range params {
			initial[i] = slices.Clone(p.M.Data)
		}
		examples := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j, p := range params {
				copy(p.M.Data, initial[j])
			}
			b.StartTimer()
			cfg := train.Config{
				Epochs: 1, BatchSize: 128, NegSamples: 16, Seed: 7,
				Optimizer: train.NewSGD(0.05),
			}
			var hist train.History
			if kvsall {
				hist, err = train.RunKvsAll(context.Background(), m, ds, cfg, 0.1)
			} else {
				hist, err = train.Run(context.Background(), m, ds, cfg)
			}
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range hist.Epochs {
				examples += e.Examples
			}
		}
		b.ReportMetric(float64(examples)/b.Elapsed().Seconds(), "examples/s")
	}
	b.Run("kvsall/batched", func(b *testing.B) { run(b, true) })
	b.Run("negsample/batched", func(b *testing.B) { run(b, false) })
}
