package train

import (
	"context"
	"math"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
)

// kvsAllPins are checkpoint fingerprints of KvsAll training on
// kvsPinDataset, keyed by model. They pin what the golden rows (label
// smoothing 0.1, so every entity row is touched every step) do not reach: at
// label smoothing 0 the hub entity is a true object of every context and
// scores far past σ's saturation, so its upstream is exactly 0 everywhere and
// its rows must stay untouched; six subjects share every chunk of 8 or 16
// contexts, so a subject's row takes two adjoints in one chunk; and each
// epoch is a three-chunk step and a one-chunk step.
var kvsAllPins = map[string]string{
	"distmult": "2640f6f064e3958843c6b3661c9cad77a0b2f0b953f1fd38156563dae779279a",
	"conve":    "1a14d30a283d069c9fdfaeaaf9079594273cefa88ce165d6d8ed8a60b417f6c9",
}

// kvsPinDataset is six subjects under eight relations, 48 contexts, each with
// one object among entities 6–28 and the hub, entity 29.
func kvsPinDataset() *kg.Dataset {
	g := kg.NewGraph()
	for i := 0; i < 30; i++ {
		g.Entities.Intern("e" + strconv.Itoa(i))
	}
	for r := 0; r < 8; r++ {
		g.Relations.Intern("r" + strconv.Itoa(r))
	}
	var ts []kg.Triple
	for s := 0; s < 6; s++ {
		for r := 0; r < 8; r++ {
			ts = append(ts,
				kg.Triple{S: kg.EntityID(s), R: kg.RelationID(r), O: kg.EntityID(6 + (5*s+3*r)%23)},
				kg.Triple{S: kg.EntityID(s), R: kg.RelationID(r), O: kvsPinHub})
		}
	}
	g.AddAll(ts)
	return &kg.Dataset{Name: "kvspin", Train: g, Valid: kg.NewGraph(), Test: kg.NewGraph()}
}

const kvsPinHub = kg.EntityID(29)

// kvsPinModel makes the hub's score saturate σ in every context, through the
// two steps: ConvE by a zero embedding row and a bias of 1000, DistMult by
// making every entry positive, at least 0.5, and the hub's row 20, so that
// each context's score at the hub is at least 8·0.4²·20 while Adam moves an
// entry by about the learning rate per step.
func kvsPinModel(t *testing.T, name string, ds *kg.Dataset) kge.Model {
	t.Helper()
	m, err := kge.New(name, kge.Config{
		NumEntities: ds.Train.Entities.Len(), NumRelations: ds.Train.Relations.Len(), Dim: 8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ent := m.Params().Get("entity")
	switch name {
	case "conve":
		clear(ent.M.Row(int(kvsPinHub)))
		m.Params().Get("entbias").M.Row(int(kvsPinHub))[0] = 1000
	case "distmult":
		for _, p := range m.Params().List() {
			for i, v := range p.M.Data {
				p.M.Data[i] = float32(math.Abs(float64(v))) + 0.5
			}
		}
		for i := range ent.M.Row(int(kvsPinHub)) {
			ent.M.Row(int(kvsPinHub))[i] = 20
		}
	}
	return m
}

// TestKvsAllCheckpointPinned trains each model for two epochs of batch 40
// (chunks 16 + 16 + 8, then 8) under Adam with weight decay, at workers 1 and
// 2, and requires the pinned fingerprint and the hub's rows bit for bit as
// they started: weight decay would move a row the step touched.
func TestKvsAllCheckpointPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("checkpoint digests are pinned on amd64: other ports fuse multiply-adds, which changes float bits")
	}
	ds := kvsPinDataset()
	for _, name := range []string{"distmult", "conve"} {
		for _, workers := range []int{1, 2} {
			m := kvsPinModel(t, name, ds)
			var hub [][]float32
			for _, p := range m.Params().List() {
				if p.M.Rows == ds.Train.Entities.Len() {
					hub = append(hub, append([]float32(nil), p.M.Row(int(kvsPinHub))...))
				}
			}
			_, err := RunKvsAll(context.Background(), m, ds, Config{
				Epochs: 2, BatchSize: 40, L2: 0.01, Workers: workers, Seed: 13,
			}, 0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := kge.Fingerprint(m); got != kvsAllPins[name] {
				t.Errorf("%s workers=%d: fingerprint %s, pinned %s", name, workers, got, kvsAllPins[name])
			}
			i := 0
			for _, p := range m.Params().List() {
				if p.M.Rows != ds.Train.Entities.Len() {
					continue
				}
				for c, v := range p.M.Row(int(kvsPinHub)) {
					if math.Float32bits(v) != math.Float32bits(hub[i][c]) {
						t.Errorf("%s workers=%d: the hub's %s row moved: %v, was %v", name, workers, p.Name, p.M.Row(int(kvsPinHub)), hub[i])
						break
					}
				}
				i++
			}
		}
	}
}
