package prune

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestSaveFileConcurrentSavers is the regression test for the fixed-temp-name
// race: two concurrent SaveFile calls on the same path used to share
// path+".tmp", so one saver could rename the other's half-written file into
// place. With unique temp names the final sidecar must always be a complete,
// loadable index.
func TestSaveFileConcurrentSavers(t *testing.T) {
	sw, fp := testModel(t, "distmult", 0, 97)
	ixA, err := Build(sw, fp, Params{Cells: 5})
	if err != nil {
		t.Fatal(err)
	}
	ixB, err := Build(sw, fp, Params{Cells: 9})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.kge.ivf")

	const rounds = 20
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := ixA.SaveFile(path); err != nil {
				t.Errorf("saver A: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := ixB.SaveFile(path); err != nil {
				t.Errorf("saver B: %v", err)
			}
		}()
	}
	wg.Wait()

	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("sidecar after concurrent saves is unloadable: %v", err)
	}
	if !reflect.DeepEqual(got, ixA) && !reflect.DeepEqual(got, ixB) {
		t.Fatal("final sidecar is neither saver's complete index")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}
