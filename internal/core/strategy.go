// Package core implements the paper's primary contribution: the fact
// discovery algorithm (Algorithm 1, "DiscoverFacts") and the six candidate
// sampling strategies it evaluates — UNIFORM RANDOM, ENTITY FREQUENCY,
// GRAPH DEGREE, CLUSTERING COEFFICIENT, CLUSTERING TRIANGLES and
// CLUSTERING SQUARES. A strategy is an immutable value; DiscoverFacts
// decides when its graph statistic is computed.
//
// Given a trained KGE model M and the knowledge graph G it was trained on,
// fact discovery finds triples in the complement of G that M considers
// highly plausible, without any input queries: for each relation it samples
// candidate subjects and objects according to a strategy, builds the mesh
// grid of candidate triples, drops the ones already in G, ranks the rest
// against their object-side corruptions with M, and keeps candidates ranked
// within top_n.
package core

import (
	"fmt"

	"repro/internal/graphstats"
	"repro/internal/kg"
)

// Strategy assigns sampling weights to candidate subject and object
// entities per relation. It is an immutable value: one strategy may serve
// any number of sweeps at once, on any graphs.
//
// The node-statistic strategies weight an entity by a per-entity statistic
// of the whole graph, which Statistic computes; Weights projects it onto one
// relation's pools. Faithful to Algorithm 1 (line 7 sits inside the
// per-relation loop), DiscoverFacts recomputes the statistic for every
// relation by default — this is precisely what makes CLUSTERING COEFFICIENT
// and CLUSTERING TRIANGLES slow in the paper's Figure 2 and what couples
// discovery runtime to the relation count. Options.CacheWeights computes it
// once per sweep instead (the weight-caching ablation).
type Strategy struct {
	name string
	// statistic derives the per-entity statistic; nil for the strategies
	// whose weights read only the relation's own triples.
	statistic func(g *kg.Graph) []float64
	// frequency weights a relation-local pool by side counts (ENTITY
	// FREQUENCY) rather than uniformly (UNIFORM RANDOM).
	frequency bool
}

// Name returns the canonical strategy name as used in the paper.
func (s Strategy) Name() string { return s.name }

// RelationLocal reports whether s's weights for a relation read only that
// relation's own triples, its pools and side counts: UNIFORM RANDOM and
// ENTITY FREQUENCY do, and their Statistic is nil.
func (s Strategy) RelationLocal() bool { return s.statistic == nil }

// Statistic returns the per-entity graph statistic Weights projects, indexed
// by entity ID, or nil for a relation-local strategy.
func (s Strategy) Statistic(g *kg.Graph) []float64 {
	if s.statistic == nil {
		return nil
	}
	return s.statistic(g)
}

// Weights returns, for relation r of g, the candidate entities on each side
// together with their unnormalized sampling weights; stat must be
// s.Statistic(g). Entities and weights are parallel slices; weights are
// non-negative. The candidate pools are the unique entities observed on each
// side of r in the graph, following AmpliGraph's discover_facts. If every
// candidate on a side has a zero statistic (possible for triangle-based
// statistics on sparse graphs), the side falls back to uniform so sampling
// remains well defined.
func (s Strategy) Weights(g *kg.Graph, r kg.RelationID, stat []float64) (subjects []kg.EntityID, subjectW []float64, objects []kg.EntityID, objectW []float64) {
	subs := g.SideEntities(r, kg.SubjectSide)
	objs := g.SideEntities(r, kg.ObjectSide)
	switch {
	case s.statistic != nil:
		return subs, project(stat, subs), objs, project(stat, objs)
	case s.frequency:
		return subs, sideCounts(g, r, kg.SubjectSide, subs), objs, sideCounts(g, r, kg.ObjectSide, objs)
	default:
		return subs, constWeights(len(subs)), objs, constWeights(len(objs))
	}
}

// StrategyNames lists the six strategies in the paper's order.
func StrategyNames() []string {
	return []string{
		"uniform_random",
		"entity_frequency",
		"graph_degree",
		"cluster_coefficient",
		"cluster_triangles",
		"cluster_squares",
	}
}

// StrategyByName constructs a strategy from its canonical name: the paper's
// six and the two extensions of extensions.go. It is the one resolver, so
// every command accepts the names every other command writes.
func StrategyByName(name string) (Strategy, error) {
	switch name {
	case "uniform_random":
		return NewUniformRandom(), nil
	case "entity_frequency":
		return NewEntityFrequency(), nil
	case "graph_degree":
		return NewGraphDegree(), nil
	case "cluster_coefficient":
		return NewClusteringCoefficient(), nil
	case "cluster_triangles":
		return NewClusteringTriangles(), nil
	case "cluster_squares":
		return NewClusteringSquares(), nil
	case "inverse_degree":
		return NewInverseDegree(), nil
	case "mixed_exploration":
		return NewMixedExploration(), nil
	default:
		return Strategy{}, fmt.Errorf("core: unknown strategy %q (supported: %v)", name, AllStrategyNames())
	}
}

// NewUniformRandom returns the UNIFORM RANDOM strategy — the paper's
// baseline: every entity on a side has equal probability (Equation 1). An
// entity appearing on both sides can still end up with different
// probabilities, because the pools differ in size.
func NewUniformRandom() Strategy { return Strategy{name: "uniform_random"} }

func constWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// NewEntityFrequency returns the ENTITY FREQUENCY strategy: each entity is
// weighted by its occurrence count on that side of the relation
// (Equation 2), so frequent entities are sampled more often.
func NewEntityFrequency() Strategy { return Strategy{name: "entity_frequency", frequency: true} }

// sideCounts weights each entity of pool by its occurrence count on side of r.
func sideCounts(g *kg.Graph, r kg.RelationID, side kg.Side, pool []kg.EntityID) []float64 {
	w := make([]float64, len(pool))
	for i, e := range pool {
		w[i] = float64(g.SideCount(r, side, e))
	}
	return w
}

func project(stat []float64, pool []kg.EntityID) []float64 {
	w := make([]float64, len(pool))
	var sum float64
	for i, e := range pool {
		if int(e) < len(stat) {
			w[i] = stat[e]
		}
		sum += w[i]
	}
	if sum == 0 {
		return constWeights(len(pool))
	}
	return w
}

// NewGraphDegree returns the GRAPH DEGREE strategy (Equation 3): weight
// proportional to total (in+out) degree, identical on both sides.
func NewGraphDegree() Strategy { return Strategy{name: "graph_degree", statistic: degreeStat} }

// degreeStat computes deg(x) for every entity (the GRAPH DEGREE statistic).
func degreeStat(g *kg.Graph) []float64 {
	w := make([]float64, g.NumEntities())
	for e := range w {
		w[e] = float64(g.Degree(kg.EntityID(e)))
	}
	return w
}

// NewClusteringTriangles returns the CLUSTERING TRIANGLES strategy
// (Equation 4): weight proportional to the local triangle count T(v) on the
// undirected homogeneous projection.
func NewClusteringTriangles() Strategy {
	return Strategy{name: "cluster_triangles", statistic: func(g *kg.Graph) []float64 {
		tri := graphstats.BuildUndirected(g).Triangles()
		w := make([]float64, len(tri))
		for i, t := range tri {
			w[i] = float64(t)
		}
		return w
	}}
}

// NewClusteringCoefficient returns the CLUSTERING COEFFICIENT strategy
// (Equation 5): weight proportional to the local clustering coefficient
// c(v) = 2T(v)/(deg(v)(deg(v)−1)).
func NewClusteringCoefficient() Strategy {
	return Strategy{name: "cluster_coefficient", statistic: func(g *kg.Graph) []float64 {
		return graphstats.BuildUndirected(g).LocalClustering(nil)
	}}
}

// NewClusteringSquares returns the CLUSTERING SQUARES strategy (Equation 6):
// weight proportional to the squares clustering coefficient c₄(v). The paper
// excluded it after a 54-hour run; computed in closed form, its weight stage
// costs about ten times the triangle strategies', and the exclusion
// experiment (X1) measures both.
func NewClusteringSquares() Strategy {
	return Strategy{name: "cluster_squares", statistic: func(g *kg.Graph) []float64 {
		return graphstats.BuildUndirected(g).SquareClustering()
	}}
}
