package eval

import (
	"math/rand"
	"sort"

	"repro/internal/graphstats"
	"repro/internal/kg"
	"repro/internal/kge"
)

// This file implements the popularity-bias diagnostic the paper discusses
// in §4.2.2: "popularity bias refers to a phenomenon where the score of
// triples containing popular entities and relations is amplified way more
// than necessary … it indicates that the model fails to capture the
// real-world semantics within the KG." The paper hypothesizes popularity
// bias to explain ENTITY FREQUENCY's outsized MRR with ConvE.
//
// The diagnostic: for a sample of (subject, relation) contexts drawn from
// the graph, score every entity as the object and rank-correlate those
// scores with the entities' global popularity (degree). A strongly positive
// mean correlation means the model prefers popular entities regardless of
// context — popularity bias.

// BiasReport summarizes the popularity-bias measurement.
type BiasReport struct {
	// MeanSpearman is the mean Spearman rank correlation between object
	// scores and object popularity over the sampled contexts, in [-1, 1].
	MeanSpearman float64
	// Contexts is the number of (s, r) contexts sampled.
	Contexts int
}

// PopularityBias measures the model's popularity bias on graph g using
// `contexts` sampled (subject, relation) pairs. Determinism follows from
// seed.
func PopularityBias(m kge.Model, g *kg.Graph, contexts int, seed int64) BiasReport {
	if contexts <= 0 {
		contexts = 50
	}
	triples := g.Triples()
	if len(triples) == 0 {
		return BiasReport{}
	}
	rng := rand.New(rand.NewSource(seed))

	popularity := make([]float64, g.NumEntities())
	for e := range popularity {
		popularity[e] = float64(g.Degree(kg.EntityID(e)))
	}
	popRanks := rankVector(popularity)

	scores := make([]float32, m.NumEntities())
	var sum float64
	n := 0
	for i := 0; i < contexts; i++ {
		t := triples[rng.Intn(len(triples))]
		m.ScoreAllObjects(t.S, t.R, scores)
		s64 := make([]float64, g.NumEntities())
		for e := range s64 {
			s64[e] = float64(scores[e])
		}
		if rho, ok := graphstats.PearsonCorrelation(rankVector(s64), popRanks); ok {
			sum += rho
			n++
		}
	}
	if n == 0 {
		return BiasReport{}
	}
	return BiasReport{MeanSpearman: sum / float64(n), Contexts: n}
}

// rankVector converts values to average ranks (ties share the mean rank),
// the standard preprocessing for Spearman correlation.
func rankVector(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
