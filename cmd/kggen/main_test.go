package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTinyPreset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	if err := run([]string{"-preset", "tiny", "-out", dir}); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range []string{"train.txt", "valid.txt", "test.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
}

func TestRunCustom(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	err := run([]string{"-entities", "60", "-relations", "4", "-triples", "500", "-out", dir})
	if err != nil {
		t.Fatalf("run custom: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-preset", "tiny"}); err == nil {
		t.Error("accepted missing -out")
	}
	if err := run([]string{"-preset", "nope", "-out", t.TempDir()}); err == nil {
		t.Error("accepted unknown preset")
	}
	if err := run([]string{"-entities", "10", "-triples", "2", "-out", t.TempDir()}); err == nil {
		t.Error("accepted unsatisfiable config")
	}
}

// TestRunRefusesCustomFlagsWithPreset: a preset fixes every generator
// parameter, so a custom flag beside it would be silently ignored.
func TestRunRefusesCustomFlagsWithPreset(t *testing.T) {
	for _, extra := range [][]string{{"-seed", "7"}, {"-entities", "60"}, {"-test", "0.1"}} {
		dir := filepath.Join(t.TempDir(), "ds")
		err := run(append([]string{"-preset", "tiny", "-out", dir}, extra...))
		if err == nil || !strings.Contains(err.Error(), extra[0]) {
			t.Errorf("-preset tiny %v: got %v, want a refusal naming %s", extra, err, extra[0])
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("-preset tiny %v wrote %s (stat: %v)", extra, dir, err)
		}
	}
}

// TestRunRefusesIgnoredScale: -scale sizes the four scaled presets only;
// beside -preset tiny or without a preset it would be silently ignored.
func TestRunRefusesIgnoredScale(t *testing.T) {
	for _, args := range [][]string{
		{"-preset", "tiny", "-scale", "3"},
		{"-scale", "3", "-entities", "60", "-relations", "4", "-triples", "500"},
	} {
		dir := filepath.Join(t.TempDir(), "ds")
		err := run(append(args, "-out", dir))
		if err == nil || !strings.Contains(err.Error(), "-scale") {
			t.Errorf("%v: got %v, want a refusal naming -scale", args, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%v wrote %s (stat: %v)", args, dir, err)
		}
	}
	if err := run([]string{"-preset", "wn18rr", "-scale", "400", "-out", filepath.Join(t.TempDir(), "ds")}); err != nil {
		t.Errorf("-preset wn18rr -scale 400: %v", err)
	}
}
