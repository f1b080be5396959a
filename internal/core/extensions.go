package core

import "repro/internal/kg"

// This file implements the first future-work direction from the paper's §6:
// "the development of new fact discovery methods and sampling strategies
// that explore the sparse areas of KGs. This resembles the exploration vs.
// exploitation dilemma always encountered in recommendation systems."
//
// Two extension strategies (not part of the paper's evaluated six; they are
// kept out of StrategyNames, the list the harness sweeps, so the reproduction
// stays faithful — StrategyByName resolves them like any other):
//
//   - INVERSE DEGREE: pure exploration — weight inversely proportional to
//     popularity, targeting exactly the long-tail entities the paper's §6
//     observes are left out by every popularity-based strategy.
//   - MIXED EXPLORATION (ε-greedy): a (1−ε)/ε blend of GRAPH DEGREE and
//     INVERSE DEGREE probability mass — the standard explore/exploit
//     compromise from recommender systems the paper alludes to.

// ExtensionStrategyNames lists the strategies implemented beyond the
// paper's six (from its future-work section).
func ExtensionStrategyNames() []string {
	return []string{"inverse_degree", "mixed_exploration"}
}

// AllStrategyNames returns the paper's strategies followed by the
// extensions.
func AllStrategyNames() []string {
	return append(StrategyNames(), ExtensionStrategyNames()...)
}

// ExtendedStrategyByName is StrategyByName: an alias kept only because
// bench/ still calls it, to go with the next [benchmark] PR.
func ExtendedStrategyByName(name string) (Strategy, error) { return StrategyByName(name) }

// inverseDegreeStat computes 1/(1+deg(x)) for every entity.
func inverseDegreeStat(g *kg.Graph) []float64 {
	w := degreeStat(g)
	for e, d := range w {
		w[e] = 1 / (1 + d)
	}
	return w
}

// NewInverseDegree returns the INVERSE DEGREE exploration strategy:
// weight(x) = 1/(1 + deg(x)). Rarely-connected entities are sampled most;
// the +1 keeps every weight positive so the distribution is always well
// formed.
func NewInverseDegree() Strategy {
	return Strategy{name: "inverse_degree", statistic: inverseDegreeStat}
}

// mixedEpsilon is MIXED EXPLORATION's ε: the share of the probability mass
// INVERSE DEGREE distributes.
const mixedEpsilon = 0.3

// NewMixedExploration returns the ε-greedy blend at ε = 0.3: a fraction ε of
// the probability mass is distributed by INVERSE DEGREE (exploration) and
// the rest by GRAPH DEGREE (exploitation).
func NewMixedExploration() Strategy {
	return Strategy{name: "mixed_exploration", statistic: func(g *kg.Graph) []float64 {
		exploit := normalizeMass(degreeStat(g))
		explore := normalizeMass(inverseDegreeStat(g))
		w := make([]float64, len(exploit))
		for i := range w {
			w[i] = (1-mixedEpsilon)*exploit[i] + mixedEpsilon*explore[i]
		}
		return w
	}}
}

// normalizeMass scales xs to sum to 1 (no-op on a zero vector).
func normalizeMass(xs []float64) []float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if sum == 0 {
		return xs
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / sum
	}
	return out
}
