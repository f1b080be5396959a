package train

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
)

func mustTinyDataset(t *testing.T) *kg.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatalf("generate tiny dataset: %v", err)
	}
	return ds
}

func newTestRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// quadSetup builds a 1-parameter "model" whose loss is (w-target)²,
// minimized by gradient descent through the optimizer under test.
func quadSetup() *kge.Param {
	ps := kge.NewParamSet()
	p := ps.Add("w", 1, 1)
	p.M.Data[0] = 5
	return p
}

// descend runs n optimizer steps on the quadratic (w − target)².
func descend(opt Optimizer, p *kge.Param, target float32, n int) {
	for i := 0; i < n; i++ {
		grad := 2 * (p.M.Data[0] - target)
		opt.Rows(p)(0, []float32{grad})
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	p := quadSetup()
	descend(NewSGD(0.1), p, 2, 200)
	if math.Abs(float64(p.M.Data[0])-2) > 1e-3 {
		t.Errorf("SGD converged to %g, want 2", p.M.Data[0])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := quadSetup()
	descend(NewAdam(0.1), p, 2, 500)
	if math.Abs(float64(p.M.Data[0])-2) > 1e-2 {
		t.Errorf("Adam converged to %g, want 2", p.M.Data[0])
	}
}

func TestAdagradConvergesOnQuadratic(t *testing.T) {
	p := quadSetup()
	descend(NewAdagrad(0.5), p, 2, 2000)
	if math.Abs(float64(p.M.Data[0])-2) > 5e-2 {
		t.Errorf("Adagrad converged to %g, want 2", p.M.Data[0])
	}
}

func TestSGDStepIsExact(t *testing.T) {
	ps := kge.NewParamSet()
	p := ps.Add("w", 2, 2)
	NewSGD(0.25).Rows(p)(1, []float32{4, 0})
	if p.M.Row(1)[0] != -1 {
		t.Errorf("w[1][0] = %g, want -1", p.M.Row(1)[0])
	}
	// Untouched rows stay untouched.
	if p.M.Row(0)[0] != 0 {
		t.Errorf("untouched row modified: %g", p.M.Row(0)[0])
	}
}

func TestAdamFirstStepIsLearningRateSized(t *testing.T) {
	// With bias correction, Adam's first step is ≈ lr regardless of
	// gradient magnitude.
	ps := kge.NewParamSet()
	p := ps.Add("w", 1, 1)
	NewAdam(0.1).Rows(p)(0, []float32{1000})
	if math.Abs(float64(p.M.Data[0])+0.1) > 1e-3 {
		t.Errorf("first Adam step = %g, want ≈ -0.1", p.M.Data[0])
	}
}

func TestAdamSparseRowsHaveIndependentState(t *testing.T) {
	// Row 0 gets many updates, row 1 gets its first late: row 1's bias
	// correction must treat it as step 1, not step N (lazy Adam).
	ps := kge.NewParamSet()
	p := ps.Add("w", 2, 1)
	opt := NewAdam(0.1)
	for i := 0; i < 10; i++ {
		opt.Rows(p)(0, []float32{1})
	}
	opt.Rows(p)(1, []float32{1})
	if math.Abs(float64(p.M.Row(1)[0])+0.1) > 1e-3 {
		t.Errorf("late row's first step = %g, want ≈ -0.1 (per-row bias correction)", p.M.Row(1)[0])
	}
}

func TestOptimizerByName(t *testing.T) {
	for _, name := range []string{"adam", "adagrad", "sgd"} {
		opt, err := OptimizerByName(name, 0.01)
		if err != nil {
			t.Fatalf("OptimizerByName(%s): %v", name, err)
		}
		if opt.Name() != name {
			t.Errorf("optimizer %q reports %q", name, opt.Name())
		}
	}
	if _, err := OptimizerByName("lion", 0.01); err == nil {
		t.Error("accepted unknown optimizer")
	}
}

func TestNegativeSamplerProducesCorruptions(t *testing.T) {
	ds := mustTinyDataset(t)
	ns := &NegativeSampler{NumEntities: ds.Train.Entities.Len()}
	rng := newTestRNG(11)
	pos := ds.Train.Triples()[0]
	subjectChanged, objectChanged := false, false
	for i := 0; i < 200; i++ {
		c := ns.Corrupt(pos, rng)
		if c == pos {
			t.Fatal("corruption equals the positive")
		}
		if c.R != pos.R {
			t.Fatal("corruption changed the relation")
		}
		if c.S != pos.S {
			subjectChanged = true
			if c.O != pos.O {
				t.Fatal("corruption changed both sides")
			}
		}
		if c.O != pos.O {
			objectChanged = true
		}
	}
	if !subjectChanged || !objectChanged {
		t.Error("sampler never corrupted one of the sides")
	}
}

// TestNegativeSamplerSubjectProb checks the side choice: the subject is
// corrupted with probability 0.5.
func TestNegativeSamplerSubjectProb(t *testing.T) {
	ds := mustTinyDataset(t)
	ns := &NegativeSampler{NumEntities: ds.Train.Entities.Len()}
	rng := newTestRNG(17)
	pos := ds.Train.Triples()[0]
	const draws = 2000
	subjects := 0
	for i := 0; i < draws; i++ {
		if c := ns.Corrupt(pos, rng); c.S != pos.S {
			subjects++
		}
	}
	if share := float64(subjects) / draws; share < 0.45 || share > 0.55 {
		t.Errorf("subject corrupted in %.3f of draws, want 0.5", share)
	}
}

func TestCorruptN(t *testing.T) {
	ds := mustTinyDataset(t)
	ns := &NegativeSampler{NumEntities: ds.Train.Entities.Len()}
	rng := newTestRNG(19)
	out := ns.CorruptN(nil, ds.Train.Triples()[0], 7, rng)
	if len(out) != 7 {
		t.Fatalf("CorruptN returned %d, want 7", len(out))
	}
	// Reusing the buffer must not grow it.
	out2 := ns.CorruptN(out, ds.Train.Triples()[1], 3, rng)
	if len(out2) != 3 {
		t.Fatalf("CorruptN reuse returned %d, want 3", len(out2))
	}
}
