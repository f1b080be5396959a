package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/kge"
)

// The checked-in gob checkpoint internal/kge pins, with its fingerprint.
const (
	gobFixture            = "../../internal/kge/testdata/distmult.kge"
	gobFixtureFingerprint = "decd60db5e6b022e4ead7c00cae71c7877025eb63cc85c3245e3f6406d4223c9"
)

func TestConvertRoundTrip(t *testing.T) {
	flatPath := filepath.Join(t.TempDir(), "m.kgf")
	if err := run([]string{"-in", gobFixture, "-out", flatPath}); err != nil {
		t.Fatalf("gob→flat: %v", err)
	}
	mm, err := kge.OpenMapped(flatPath)
	if err != nil {
		t.Fatalf("open converted flat: %v", err)
	}
	defer mm.Close()
	if got := kge.Fingerprint(mm); got != gobFixtureFingerprint {
		t.Fatalf("converted fingerprint %s, want %s", got, gobFixtureFingerprint)
	}
}

func TestConvertErrors(t *testing.T) {
	dir := t.TempDir()
	flatPath := filepath.Join(dir, "m.kgf")
	if err := run([]string{"-in", gobFixture}); err == nil {
		t.Error("accepted missing -out")
	}
	if err := run([]string{"-in", filepath.Join(dir, "none.kge"), "-out", flatPath}); err == nil {
		t.Error("accepted missing input")
	}
	// An existing output is always refused.
	if err := run([]string{"-in", gobFixture, "-out", flatPath}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", gobFixture, "-out", flatPath}); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("existing output: got %v, want a refusal", err)
	}
	// Flat is the only output format, so a flat input has nothing to become.
	if err := run([]string{"-in", flatPath, "-out", filepath.Join(dir, "again.kgf")}); err == nil {
		t.Error("accepted a flat input")
	}
}
