package eval

import (
	"sort"

	"repro/internal/kg"
)

// This file implements an evaluation protocol for fact discovery — the
// paper's §6 notes that none exists: the train/valid/test protocol of link
// prediction does not transfer because (a) discovery is not exhaustive and
// (b) a triple missing from the test set is not necessarily false.
//
// The protocol here is hidden-fact recovery: hide a known-true subset H of
// the graph before training, run discovery on the remainder, and score the
// discovered set D against H. Because candidates outside H are unknown
// rather than false, the report separates three quantities instead of
// forcing a precision number: recall of H, the known-true fraction of D,
// and the rank-ordered recovery curve (how early in the ranked output the
// hidden facts appear).

// DiscoveryReport scores a discovered fact set against hidden ground truth.
type DiscoveryReport struct {
	// Discovered is |D|, the number of facts evaluated.
	Discovered int
	// Hidden is |H|, the number of held-out true facts.
	Hidden int
	// Recovered is |D ∩ H|.
	Recovered int
	// Recall is |D ∩ H| / |H| (0 when H is empty).
	Recall float64
	// KnownTrueRate is |D ∩ H| / |D| — a lower bound on precision: the
	// remaining discoveries are unknown, not false.
	KnownTrueRate float64
	// RecallAt maps k to the recall achieved by the k best-ranked
	// discoveries (keys: 10, 50, 100, and |D|).
	RecallAt map[int]float64
}

// RankedFact pairs a candidate triple with its rank, ordered input for
// EvaluateDiscovery (best rank first; ties arbitrary).
type RankedFact struct {
	Triple kg.Triple
	Rank   int
}

// EvaluateDiscovery scores ranked discoveries against the hidden graph.
func EvaluateDiscovery(facts []RankedFact, hidden *kg.Graph) DiscoveryReport {
	rep := DiscoveryReport{
		Discovered: len(facts),
		Hidden:     hidden.Len(),
		RecallAt:   make(map[int]float64),
	}
	if rep.Hidden == 0 {
		return rep
	}
	ordered := make([]RankedFact, len(facts))
	copy(ordered, facts)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Rank < ordered[j].Rank })

	cutoffs := []int{10, 50, 100, len(ordered)}
	recoveredAt := make([]int, 0, len(ordered))
	recovered := 0
	for _, f := range ordered {
		if hidden.Contains(f.Triple) {
			recovered++
		}
		recoveredAt = append(recoveredAt, recovered)
	}
	rep.Recovered = recovered
	rep.Recall = float64(recovered) / float64(rep.Hidden)
	if rep.Discovered > 0 {
		rep.KnownTrueRate = float64(recovered) / float64(rep.Discovered)
	}
	for _, k := range cutoffs {
		if k <= 0 {
			continue
		}
		idx := k
		if idx > len(recoveredAt) {
			idx = len(recoveredAt)
		}
		if idx == 0 {
			rep.RecallAt[k] = 0
			continue
		}
		rep.RecallAt[k] = float64(recoveredAt[idx-1]) / float64(rep.Hidden)
	}
	return rep
}

// HideFacts splits g into (visible, hidden): a deterministic pseudo-random
// fraction of triples is withheld as the recovery target. Entities and
// relations referenced only by hidden triples are kept out of the hidden
// set (they would be untrainable), mirroring the no-unseen split rule.
func HideFacts(g *kg.Graph, fraction float64, seed int64) (visible, hidden *kg.Graph) {
	visible = kg.NewGraphWithDicts(g.Entities, g.Relations)
	hidden = kg.NewGraphWithDicts(g.Entities, g.Relations)
	if fraction <= 0 {
		visible.AddAll(g.Triples())
		return visible, hidden
	}
	if fraction > 0.9 {
		fraction = 0.9
	}
	// Deterministic selection via a cheap hash of (triple, seed) — avoids
	// pulling in math/rand state and stays stable across runs.
	threshold := uint64(fraction * float64(1<<32))
	degree := make(map[kg.EntityID]int)
	ts := g.Triples()
	for _, t := range ts {
		degree[t.S]++
		degree[t.O]++
	}
	var vis, hid []kg.Triple
	for _, t := range ts {
		h := tripleHash(t, seed)
		// Keep a triple visible if hiding it would orphan an entity.
		if h%(1<<32) < threshold && degree[t.S] > 1 && degree[t.O] > 1 {
			hid = append(hid, t)
			degree[t.S]--
			degree[t.O]--
		} else {
			vis = append(vis, t)
		}
	}
	visible.AddAll(vis)
	hidden.AddAll(hid)
	return visible, hidden
}

// tripleHash is a splitmix64-style mix of the triple's components and seed.
func tripleHash(t kg.Triple, seed int64) uint64 {
	x := uint64(seed)
	for _, v := range [3]uint64{uint64(uint32(t.S)), uint64(uint32(t.R)), uint64(uint32(t.O))} {
		x ^= v + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}
