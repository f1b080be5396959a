package main

import (
	"sort"
	"testing"

	"repro/bench/ledger"
)

func loadSpec(t *testing.T) *ledger.Spec {
	t.Helper()
	spec, err := ledger.LoadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// The registry in names.go and BENCHMARK.json declare the same workloads and
// metrics, with the same units and directions.
func TestDeclaredNames(t *testing.T) {
	spec := loadSpec(t)
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	if !equalSets(got, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, kgbench has %v", got, workloadNames)
	}
	check := func(kind string, declared []ledger.Metric, registry []metricDecl, wantBound bool) {
		byName := map[string]ledger.Metric{}
		for _, m := range declared {
			byName[m.Name] = m
			if (m.Bound != nil) != wantBound {
				t.Errorf("%s metric %s: bound present = %v, want %v", kind, m.Name, m.Bound != nil, wantBound)
			}
		}
		if len(byName) != len(declared) {
			t.Errorf("%s: a name is declared twice", kind)
		}
		for _, d := range registry {
			m, ok := byName[d.name]
			if !ok {
				t.Errorf("%s metric %s is emitted but not declared in BENCHMARK.json", kind, d.name)
				continue
			}
			if m.Unit != d.unit || m.Better != d.better || m.Unit == "" {
				t.Errorf("%s metric %s: BENCHMARK.json says %q/%q, kgbench says %q/%q", kind, d.name, m.Unit, m.Better, d.unit, d.better)
			}
			delete(byName, d.name)
		}
		for name := range byName {
			t.Errorf("%s metric %s is declared in BENCHMARK.json but never emitted", kind, name)
		}
	}
	check("end-to-end", spec.EndToEnd, endToEndMetrics, true)
	check("per-layer", spec.PerLayer, perLayerMetrics, false)
}

// Every workload runs on the smoke preset in both modes without a failed
// check, and its result line carries exactly the declared set for the mode:
// none missing, none extra, units present, end-to-end values never zero.
func TestSmokeEmitsDeclaredSet(t *testing.T) {
	spec := loadSpec(t)
	pre, err := presetByName("smoke")
	if err != nil {
		t.Fatal(err)
	}
	layersReached := map[string]bool{}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(runConfig{workload: name, pre: pre, seed: 1, trace: trace, workdir: t.TempDir(), outdir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
				t.Errorf("%s (trace %v): %d of %d failed: %v", name, trace, rep.Result.Failed, rep.Result.Attempted, rep.Notes)
			}
			declared := spec.EndToEnd
			if trace {
				declared = spec.PerLayer
			}
			var want, got []string
			for _, m := range declared {
				want = append(want, m.Name)
				v, ok := rep.Result.Metrics[m.Name]
				if ok && v.Unit != m.Unit {
					t.Errorf("%s (trace %v): %s has unit %q, declared %q", name, trace, m.Name, v.Unit, m.Unit)
				}
				if ok && !trace && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is zero", name, m.Name)
				}
				if ok && trace && v.Value != 0 {
					layersReached[m.Name] = true
				}
			}
			for n := range rep.Result.Metrics {
				got = append(got, n)
			}
			if !equalSets(got, want) {
				t.Errorf("%s (trace %v): result line has %d metrics, BENCHMARK.json declares %d for this mode", name, trace, len(got), len(want))
			}
		}
	}
	// A per-layer metric no workload ever fills would be a dead name.
	for _, m := range spec.PerLayer {
		switch m.Name {
		case "failed_share", "serve.rejected_429":
			continue // zero is the healthy value
		}
		if !layersReached[m.Name] {
			t.Errorf("per-layer metric %s is zero on every workload", m.Name)
		}
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
