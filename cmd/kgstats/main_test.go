package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/kg"
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

func TestRunStats(t *testing.T) {
	dir := writeTinyDataset(t)
	for _, args := range [][]string{
		{"-data", dir},
		{"-data", dir, "-clustering"},
		{"-data", dir, "-clustering", "-histogram", "-squares", "-top", "3"},
	} {
		if err := run(args, io.Discard); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Error("accepted missing -data")
	}
	if err := run([]string{"-data", filepath.Join(t.TempDir(), "missing")}, io.Discard); err == nil {
		t.Error("accepted missing dataset")
	}
}

// TestRunPrintsTrianglesAndTopList runs kgstats on a 16-entity dataset: a
// hub with twelve leaves, then a triangle a, b, c (IDs in order of first
// appearance: hub 0, leaves 1–12, a 13, b 14, c 15). One triangle; c(v) = 1
// on its three corners and 0 elsewhere, so the average is 3/16. The top list
// is degree descending with ties by ID — enough entities that an unstable
// sort would shuffle the ties.
func TestRunPrintsTrianglesAndTopList(t *testing.T) {
	dir := t.TempDir()
	var train strings.Builder
	for i := 1; i <= 12; i++ {
		fmt.Fprintf(&train, "hub\tr\tl%02d\n", i)
	}
	train.WriteString("a\tr\tb\nb\tr\tc\nc\tr\ta\n")
	for name, body := range map[string]string{"train.txt": train.String(), "valid.txt": "", "test.txt": ""} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if err := run([]string{"-data", dir, "-clustering", "-top", "16"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"entities:   16\n",
		"undirected edges:               15\n",
		"triangles (total):              1\n",
		"average clustering coefficient: 0.1875\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	var top []string
	for _, line := range strings.Split(got, "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[1] == "degree" {
			top = append(top, f[0]+" "+f[2])
		}
	}
	want := []string{"hub 12", "a 2", "b 2", "c 2"}
	for i := 1; i <= 12; i++ {
		want = append(want, fmt.Sprintf("l%02d 1", i))
	}
	if strings.Join(top, ",") != strings.Join(want, ",") {
		t.Errorf("top list %v, want %v", top, want)
	}
}
