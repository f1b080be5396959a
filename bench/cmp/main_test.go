package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/bench/ledger"
)

func bound(b float64) *float64 { return &b }

func TestJudge(t *testing.T) {
	lower := ledger.Metric{Name: "wall_s", Better: "lower", Bound: bound(0.10)}
	higher := ledger.Metric{Name: "work_per_s", Better: "higher", Bound: bound(0.10)}
	for _, c := range []struct {
		name         string
		m            ledger.Metric
		base, change []float64
		want         string
	}{
		{"lower, slower past the bound", lower, []float64{10}, []float64{11.5}, verdictWorse},
		{"lower, slower within the bound", lower, []float64{10}, []float64{10.9}, verdictSame},
		{"lower, faster", lower, []float64{10}, []float64{5}, verdictSame},
		{"higher, dropped past the bound", higher, []float64{100}, []float64{85}, verdictWorse},
		{"higher, dropped within the bound", higher, []float64{100}, []float64{95}, verdictSame},
		{"higher, rose", higher, []float64{100}, []float64{150}, verdictSame},
		{"steady runs, worse", lower, []float64{10, 10.1, 9.9, 10}, []float64{12, 12.1, 11.9, 12}, verdictWorse},
		{"spread wider than the bound hides a regression", lower, []float64{10, 13, 8, 11}, []float64{12, 12.1, 11.9, 12}, verdictUnresolved},
		{"spread wider than the bound hides sameness too", lower, []float64{10, 10, 10, 10}, []float64{8, 13, 10, 11}, verdictUnresolved},
	} {
		if got := judge(c.m, c.base, c.change); got.verdict != c.want {
			t.Errorf("%s: verdict %s (worse by %.3f, spread %.3f), want %s", c.name, got.verdict, got.worseBy, got.spread, c.want)
		}
	}
	if r := judge(lower, []float64{10}, []float64{11}); r.spreadKnown {
		t.Error("single runs have no spread")
	}
}

func testLedger(seed int64, wall float64, digest string) *ledger.Ledger {
	return &ledger.Ledger{
		Meta: ledger.Meta{Schema: ledger.SchemaVersion, Commit: "abc", P: 2, GOMAXPROCS: 2, Seed: seed, Preset: "full"},
		Workloads: map[string]*ledger.WorkloadRecord{
			"w": {
				FixtureSHA256: "f00d",
				Metrics:       map[string]*ledger.Series{"wall_s": {Unit: "s", Values: []float64{wall}}},
				Digests:       map[string]string{"sweeps": digest},
			},
		},
	}
}

func runCmp(t *testing.T, a, b *ledger.Ledger) (int, string, error) {
	t.Helper()
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"w","why":"test"}],
		"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}],"per_layer":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := a.Save(pa); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(pb); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := run([]string{"-spec", spec, pa, pb}, &out)
	return code, out.String(), err
}

func TestCompareLedgers(t *testing.T) {
	code, out, err := runCmp(t, testLedger(1, 10, "d1"), testLedger(1, 10.5, "d1"))
	if code != 0 || err != nil || !strings.Contains(out, verdictSame) {
		t.Errorf("within the bound: code %d, err %v, output:\n%s", code, err, out)
	}
	code, out, _ = runCmp(t, testLedger(1, 10, "d1"), testLedger(1, 12, "d1"))
	if code != 1 || !strings.Contains(out, verdictWorse) {
		t.Errorf("past the bound: code %d, output:\n%s", code, out)
	}
	code, out, _ = runCmp(t, testLedger(1, 10, "d1"), testLedger(1, 10, "d2"))
	if code != 1 || !strings.Contains(out, "output_changed") {
		t.Errorf("changed digest: code %d, output:\n%s", code, out)
	}
}

func TestRefusesIncomparableLedgers(t *testing.T) {
	base := testLedger(1, 10, "d")
	for name, mutate := range map[string]func(*ledger.Ledger){
		"seed":       func(l *ledger.Ledger) { l.Meta.Seed = 2 },
		"P":          func(l *ledger.Ledger) { l.Meta.P = 1 },
		"GOMAXPROCS": func(l *ledger.Ledger) { l.Meta.GOMAXPROCS = 4 },
		"schema":     func(l *ledger.Ledger) { l.Meta.Schema++ },
		"fixture":    func(l *ledger.Ledger) { l.Workloads["w"].FixtureSHA256 = "beef" },
	} {
		other := testLedger(1, 10, "d")
		mutate(other)
		if code, _, err := runCmp(t, base, other); code != 2 || err == nil {
			t.Errorf("%s differs: code %d, err %v; want a refusal", name, code, err)
		}
	}
}
