package main

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
	"repro/internal/train"
)

// fixture writes a tiny dataset and a trained checkpoint to temp dirs.
func fixture(t *testing.T) (dataDir, modelPath string) {
	t.Helper()
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dataDir = filepath.Join(t.TempDir(), "ds")
	if err := kg.SaveDataset(ds, dataDir); err != nil {
		t.Fatal(err)
	}
	// IDs must match the TSV load order, so reload before training.
	reloaded, err := kg.LoadDataset("tiny", dataDir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kge.New("distmult", kge.Config{
		NumEntities:  reloaded.Train.Entities.Len(),
		NumRelations: reloaded.Train.Relations.Len(),
		Dim:          8,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Run(context.Background(), m, reloaded, train.Config{Epochs: 3, BatchSize: 64, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	modelPath = filepath.Join(t.TempDir(), "m.kge")
	if err := kge.SaveFlatFile(m, modelPath); err != nil {
		t.Fatal(err)
	}
	return dataDir, modelPath
}

func TestRunEvaluates(t *testing.T) {
	dataDir, modelPath := fixture(t)
	for _, args := range [][]string{
		{"-data", dataDir, "-model", modelPath},
		{"-data", dataDir, "-model", modelPath, "-filtered=false"},
		{"-data", dataDir, "-model", modelPath, "-both", "-split", "valid", "-limit", "5"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dataDir, modelPath := fixture(t)
	if err := run([]string{"-data", dataDir}); err == nil {
		t.Error("accepted missing -model")
	}
	if err := run([]string{"-model", modelPath}); err == nil {
		t.Error("accepted missing -data")
	}
	if err := run([]string{"-data", dataDir, "-model", modelPath, "-split", "bogus"}); err == nil {
		t.Error("accepted unknown split")
	}
	if err := run([]string{"-data", dataDir, "-model", filepath.Join(t.TempDir(), "none.kge")}); err == nil {
		t.Error("accepted missing checkpoint")
	}
}

// TestRunRefusesUncoveredVocabulary: a checkpoint with fewer relations or
// entities than the dataset is an error, not a panic in a ranking worker.
func TestRunRefusesUncoveredVocabulary(t *testing.T) {
	dataDir, _ := fixture(t)
	ds, err := kg.LoadDataset("tiny", dataDir)
	if err != nil {
		t.Fatal(err)
	}
	nEnt, nRel := ds.Train.Entities.Len(), ds.Train.Relations.Len()
	for name, cfg := range map[string]kge.Config{
		"relations": {NumEntities: nEnt, NumRelations: 1, Dim: 8, Seed: 1},
		"entities":  {NumEntities: nEnt - 1, NumRelations: nRel, Dim: 8, Seed: 1},
	} {
		m, err := kge.New("distmult", cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name+".kgf")
		if err := kge.SaveFlatFile(m, path); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-data", dataDir, "-model", path}); err == nil {
			t.Errorf("accepted a checkpoint short of %s", name)
		}
	}
}
