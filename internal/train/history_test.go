package train

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
)

// TestRunIgnoresDeleteHistory trains one model on a graph that had triples
// deleted and one on the graph rebuilt without them: the checkpoints must be
// identical. Run shuffles a copy of Triples with a seeded RNG, so this holds
// only if a deleted graph lists its triples as its rebuild does. The larger
// share also crosses the point where the gaps deletes leave in the sequence
// numbers outnumber the triples and the graph renumbers them.
func TestRunIgnoresDeleteHistory(t *testing.T) {
	ds := tinyDataset(t)
	rng := rand.New(rand.NewSource(5))
	for _, share := range []float64{0.1, 0.6} {
		edited := ds.Train.Clone()
		ts := edited.Triples()
		gone := map[kg.Triple]bool{}
		for _, i := range rng.Perm(len(ts))[:int(share*float64(len(ts)))] {
			gone[ts[i]] = edited.Delete(ts[i])
		}
		rebuilt := kg.NewGraphWithDicts(edited.Entities, edited.Relations)
		rebuilt.AddAll(slices.DeleteFunc(ts, func(tr kg.Triple) bool { return gone[tr] }))
		fingerprint := func(g *kg.Graph) string {
			d := *ds
			d.Train = g
			m := determinismModel(t, "distmult", &d)
			if _, err := Run(context.Background(), m, &d, Config{Epochs: 2, BatchSize: 64, NegSamples: 2, Seed: 17}); err != nil {
				t.Fatal(err)
			}
			return kge.Fingerprint(m)
		}
		if a, b := fingerprint(edited), fingerprint(rebuilt); a != b {
			t.Errorf("share %g: the deleted graph trains %s, its rebuild %s", share, a, b)
		}
	}
}
