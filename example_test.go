package repro_test

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/train"
)

// biomedicalKG builds a drug / protein / disease / symptom graph in which a
// drug treats the diseases of the proteins it targets, and hides 30% of the
// "treats" facts from the graph it returns.
func biomedicalKG(seed int64) (g *kg.Graph, hidden []kg.Triple) {
	rng := rand.New(rand.NewSource(seed))
	name := func(kind string, i int) string { return fmt.Sprintf("%s:%02d", kind, i) }
	g = kg.NewGraph()
	for _, k := range []struct {
		kind string
		n    int
	}{{"drug", 40}, {"protein", 30}, {"disease", 25}, {"symptom", 20}} {
		for i := range k.n {
			g.Entities.Intern(name(k.kind, i))
		}
	}
	// pick draws 1..most indices below n.
	pick := func(most, n int) []int {
		out := make([]int, 1+rng.Intn(most))
		for k := range out {
			out[k] = rng.Intn(n)
		}
		return out
	}
	proteinDiseases := make([][]int, 30)
	for p := range proteinDiseases {
		proteinDiseases[p] = pick(2, 25)
	}
	drugTargets := make([][]int, 40)
	for d := range drugTargets {
		drugTargets[d] = pick(3, 30)
	}
	var treats []kg.Triple
	for d, targets := range drugTargets {
		for _, p := range targets {
			g.AddNamed(name("drug", d), "targets", name("protein", p))
			for _, dis := range proteinDiseases[p] {
				n := g.Len()
				if t := g.AddNamed(name("drug", d), "treats", name("disease", dis)); g.Len() > n {
					treats = append(treats, t)
				}
			}
		}
	}
	for p, diss := range proteinDiseases {
		for _, dis := range diss {
			g.AddNamed(name("protein", p), "associated_with", name("disease", dis))
		}
	}
	for dis := range 25 {
		for range 1 + rng.Intn(3) {
			g.AddNamed(name("disease", dis), "presents", name("symptom", rng.Intn(20)))
		}
	}
	rng.Shuffle(len(treats), func(i, j int) { treats[i], treats[j] = treats[j], treats[i] })
	hidden = treats[:len(treats)*30/100]
	hide := make(map[kg.Triple]bool)
	for _, t := range hidden {
		hide[t] = true
	}
	tr := kg.NewGraphWithDicts(g.Entities, g.Relations)
	for _, t := range g.Triples() {
		if !hide[t] {
			tr.Add(t)
		}
	}
	return tr, hidden
}

// The paper's motivating scenario (§1): a scientist holds a biomedical
// graph and wants plausible new treatments without asking any query. ComplEx
// is trained on the graph without the hidden treatments, and GRAPH DEGREE
// discovery on the "treats" relation finds most of them again.
func Example_biomedical() {
	g, hidden := biomedicalKG(11)
	fmt.Printf("biomedical KG: %d entities, %d relations, %d facts (%d treatments hidden)\n",
		g.NumEntities(), g.NumRelations(), g.Len(), len(hidden))
	model, err := kge.New("complex", kge.Config{
		NumEntities: g.Entities.Len(), NumRelations: g.Relations.Len(), Dim: 48, Seed: 3,
	})
	if err != nil {
		panic(err)
	}
	empty := kg.NewGraphWithDicts(g.Entities, g.Relations)
	ds := &kg.Dataset{Name: "biomed", Train: g, Valid: empty, Test: empty}
	if _, err := train.Run(context.Background(), model, ds, train.Config{
		Epochs: 80, BatchSize: 128, NegSamples: 8, Seed: 5,
	}); err != nil {
		panic(err)
	}
	treats, _ := g.Relations.Lookup("treats")
	res, err := core.DiscoverFacts(context.Background(), model, g, core.NewGraphDegree(), core.Options{
		TopN: 30, MaxCandidates: 400, Relations: []kg.RelationID{kg.RelationID(treats)}, Seed: 17,
	})
	if err != nil {
		panic(err)
	}
	isHidden := make(map[kg.Triple]bool, len(hidden))
	for _, t := range hidden {
		isHidden[t] = true
	}
	recovered := 0
	fmt.Printf("discovered %d treatments; the best five:\n", len(res.Facts))
	for i, f := range res.Facts {
		mark := ""
		if isHidden[f.Triple] {
			recovered++
			mark = "  (hidden)"
		}
		if i < 5 {
			fmt.Printf("  rank %d  %s%s\n", f.Rank, g.FormatTriple(f.Triple), mark)
		}
	}
	fmt.Printf("recovered %d of %d hidden treatments (%.0f%%) without any input query\n",
		recovered, len(hidden), 100*float64(recovered)/float64(len(hidden)))
	// Output:
	// biomedical KG: 115 entities, 4 relations, 245 facts (32 treatments hidden)
	// discovered 271 treatments; the best five:
	//   rank 2  (drug:04, treats, disease:04)  (hidden)
	//   rank 2  (drug:06, treats, disease:23)
	//   rank 2  (drug:19, treats, disease:09)  (hidden)
	//   rank 2  (drug:22, treats, disease:15)  (hidden)
	//   rank 3  (drug:08, treats, disease:15)
	// recovered 23 of 32 hidden treatments (72%) without any input query
}
