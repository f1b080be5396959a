package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
)

func writeTinyDataset(t *testing.T) string {
	t.Helper()
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ds")
	if err := kg.SaveDataset(ds, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunTrainsAndSaves(t *testing.T) {
	dir := writeTinyDataset(t)
	out := filepath.Join(t.TempDir(), "m.kge")
	err := run([]string{"-data", dir, "-model", "distmult", "-dim", "8",
		"-epochs", "3", "-out", out, "-quiet"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	m, err := kge.OpenMapped(out)
	if err != nil {
		t.Fatalf("checkpoint does not open as flat: %v", err)
	}
	defer m.Close()
	if m.Name() != "distmult" {
		t.Errorf("checkpoint is a %s, want a distmult", m.Name())
	}
	if magic, _ := os.ReadFile(out); !bytes.HasPrefix(magic, []byte("KGEFLAT1")) {
		t.Errorf("checkpoint does not start with the flat magic KGEFLAT1")
	}
}

func TestRunWithEarlyStoppingAndLoss(t *testing.T) {
	dir := writeTinyDataset(t)
	out := filepath.Join(t.TempDir(), "m.kge")
	err := run([]string{"-data", dir, "-model", "transe", "-dim", "8",
		"-epochs", "4", "-loss", "margin", "-opt", "adagrad",
		"-patience", "2", "-eval_every", "1", "-out", out, "-quiet"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunWorkersFlagDeterministic(t *testing.T) {
	dir := writeTinyDataset(t)
	checkpoint := func(workers string, kvsall bool) []byte {
		t.Helper()
		out := filepath.Join(t.TempDir(), "m.kge")
		args := []string{"-data", dir, "-model", "distmult", "-dim", "8",
			"-epochs", "2", "-seed", "11", "-workers", workers, "-out", out, "-quiet"}
		if kvsall {
			args = append(args, "-kvsall")
		}
		if err := run(args); err != nil {
			t.Fatalf("run (workers=%s, kvsall=%v): %v", workers, kvsall, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(checkpoint("1", false), checkpoint("3", false)) {
		t.Error("negative-sampling checkpoints differ between -workers 1 and -workers 3")
	}
	if !bytes.Equal(checkpoint("1", true), checkpoint("3", true)) {
		t.Error("KvsAll checkpoints differ between -workers 1 and -workers 3")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-model", "transe"}); err == nil {
		t.Error("accepted missing -data")
	}
	dir := writeTinyDataset(t)
	if err := run([]string{"-data", dir, "-model", "bogus", "-quiet"}); err == nil {
		t.Error("accepted unknown model")
	}
	if err := run([]string{"-data", dir, "-opt", "bogus", "-quiet"}); err == nil {
		t.Error("accepted unknown optimizer")
	}
	if err := run([]string{"-data", dir, "-loss", "bogus", "-quiet"}); err == nil {
		t.Error("accepted unknown loss")
	}
	if err := run([]string{"-data", filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Error("accepted missing dataset directory")
	}
	// A negative count must come back as an error reporting the field, not
	// reach a slice bound or a makeslice in a worker goroutine and panic.
	for flag, field := range map[string]string{"-batch": "BatchSize", "-negs": "NegSamples", "-epochs": "Epochs"} {
		for _, objective := range [][]string{nil, {"-kvsall"}} {
			args := append([]string{"-data", dir, "-model", "distmult", "-dim", "8", "-quiet", flag, "-5"}, objective...)
			if err := run(args); err == nil || !strings.Contains(err.Error(), field+" -5") {
				t.Errorf("%s -5 %v: error = %v, want one reporting %s -5", flag, objective, err, field)
			}
		}
	}
}
