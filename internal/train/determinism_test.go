package train

import (
	"context"
	"sort"
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
)

// Training must be bit-deterministic for any worker count: the unit of
// gradient accumulation is the fixed-size chunk, so -workers 1 and
// -workers 4 walk the same float addition order. These tests train every
// model under both objectives at different worker counts and require
// byte-identical parameters via kge.Fingerprint.

func tinyDataset(t *testing.T) *kg.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatalf("generate tiny dataset: %v", err)
	}
	return ds
}

func determinismModel(t *testing.T, name string, ds *kg.Dataset) kge.Model {
	t.Helper()
	m, err := kge.New(name, kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          16,
		Seed:         1,
	})
	if err != nil {
		t.Fatalf("new %s: %v", name, err)
	}
	return m
}

// The subtests keep the "batched/" prefix they had beside a scalar-kernel
// row, so their names stay the ones test records know.
func TestRunWorkerCountInvariant(t *testing.T) {
	ds := tinyDataset(t)
	for _, name := range kge.ModelNames() {
		name := name
		t.Run("batched/"+name, func(t *testing.T) {
			t.Parallel()
			train := func(workers int) string {
				m := determinismModel(t, name, ds)
				_, err := Run(context.Background(), m, ds, Config{
					Epochs: 2, BatchSize: 64, NegSamples: 2, Seed: 17,
					Workers: workers,
				})
				if err != nil {
					t.Fatalf("train %s (workers=%d): %v", name, workers, err)
				}
				return kge.Fingerprint(m)
			}
			w1 := train(1)
			for _, workers := range []int{2, 3, 4, 8} {
				if w := train(workers); w != w1 {
					t.Errorf("%s: workers=%d digest %s != workers=1 digest %s", name, workers, w, w1)
				}
			}
		})
	}
}

func TestRunKvsAllWorkerCountInvariant(t *testing.T) {
	ds := tinyDataset(t)
	for _, name := range kge.ModelNames() {
		name := name
		t.Run("batched/"+name, func(t *testing.T) {
			t.Parallel()
			train := func(workers int) string {
				m := determinismModel(t, name, ds)
				_, err := RunKvsAll(context.Background(), m, ds, Config{
					Epochs: 2, BatchSize: 32, Seed: 17,
					Workers: workers,
				}, 0.1)
				if err != nil {
					t.Fatalf("KvsAll train %s (workers=%d): %v", name, workers, err)
				}
				return kge.Fingerprint(m)
			}
			w1 := train(1)
			for _, workers := range []int{2, 3, 8} {
				if w := train(workers); w != w1 {
					t.Errorf("%s: KvsAll workers=%d digest %s != workers=1 digest %s", name, workers, w, w1)
				}
			}
		})
	}
}

func TestBuildKvsContextsSorted(t *testing.T) {
	ds := tinyDataset(t)
	contexts := buildKvsContexts(ds.Train)
	ordered := sort.SliceIsSorted(contexts, func(i, j int) bool {
		if contexts[i].s != contexts[j].s {
			return contexts[i].s < contexts[j].s
		}
		return contexts[i].r < contexts[j].r
	})
	if !ordered {
		t.Error("contexts not sorted by (s, r)")
	}
	for _, c := range contexts {
		if !sort.SliceIsSorted(c.objects, func(i, j int) bool { return c.objects[i] < c.objects[j] }) {
			t.Errorf("objects of (%d, %d) not sorted", c.s, c.r)
		}
	}
	// Two builds over the same graph must agree element-for-element.
	again := buildKvsContexts(ds.Train)
	if len(again) != len(contexts) {
		t.Fatalf("rebuild produced %d contexts, want %d", len(again), len(contexts))
	}
	for i := range contexts {
		a, b := contexts[i], again[i]
		if a.s != b.s || a.r != b.r || len(a.objects) != len(b.objects) {
			t.Fatalf("context %d differs between builds: %+v vs %+v", i, a, b)
		}
		for j := range a.objects {
			if a.objects[j] != b.objects[j] {
				t.Fatalf("context %d object %d differs: %d vs %d", i, j, a.objects[j], b.objects[j])
			}
		}
	}
}
