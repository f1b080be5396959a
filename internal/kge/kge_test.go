package kge

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/kg"
	"repro/internal/vecmath"
)

func testConfig(dim int) Config {
	return Config{NumEntities: 12, NumRelations: 4, Dim: dim, Seed: 3}
}

func allModels(t *testing.T, dim int) []Model {
	t.Helper()
	var models []Model
	for _, name := range ModelNames() {
		m, err := New(name, testConfig(dim))
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		models = append(models, m)
	}
	// The minimal-contract toy model (toy_test.go) takes every check the
	// shipped models take.
	return append(models, NewToyModel(testConfig(dim)))
}

// derivedModels is allModels plus a TransE of odd width, so the derived
// distance operations also run the L1 kernels' scalar tails.
func derivedModels(t *testing.T) []Model {
	t.Helper()
	l1, err := New("transe", testConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	return append(allModels(t, 8), l1)
}

func TestNewUnknownModel(t *testing.T) {
	if _, err := New("bogus", testConfig(8)); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{NumEntities: 0, NumRelations: 1, Dim: 8},
		{NumEntities: 1, NumRelations: 0, Dim: 8},
		{NumEntities: 1, NumRelations: 1, Dim: 0},
	} {
		if _, err := New("transe", cfg); err == nil {
			t.Errorf("accepted invalid config %+v", cfg)
		}
	}
}

func TestModelIdentity(t *testing.T) {
	for _, m := range allModels(t, 8) {
		if m.NumEntities() != 12 || m.NumRelations() != 4 {
			t.Errorf("%s: vocab sizes wrong", m.Name())
		}
		if m.Dim() != 8 {
			t.Errorf("%s: Dim = %d, want 8", m.Name(), m.Dim())
		}
	}
}

func TestScoreDeterministic(t *testing.T) {
	tr := kg.Triple{S: 1, R: 2, O: 3}
	for _, name := range ModelNames() {
		a, err := New(name, testConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(name, testConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		if a.Score(tr) != b.Score(tr) {
			t.Errorf("%s: same seed produced different scores", name)
		}
	}
}

// TestScoreAllMatchesScore verifies the batched sweeps agree with the
// per-triple scoring function — the correctness condition for ranking.
func TestScoreAllMatchesScore(t *testing.T) {
	for _, m := range allModels(t, 8) {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			out := make([]float32, m.NumEntities())
			m.ScoreAllObjects(2, 1, out)
			for o := 0; o < m.NumEntities(); o++ {
				want := m.Score(kg.Triple{S: 2, R: 1, O: kg.EntityID(o)})
				if math.Abs(float64(out[o]-want)) > 1e-3*(1+math.Abs(float64(want))) {
					t.Fatalf("ScoreAllObjects[%d] = %g, Score = %g", o, out[o], want)
				}
			}
			ScoreAllSubjectsBatch(m, []kg.EntityID{3}, 1, &vecmath.Matrix{Rows: 1, Cols: len(out), Data: out})
			for s := 0; s < m.NumEntities(); s++ {
				want := m.Score(kg.Triple{S: kg.EntityID(s), R: 1, O: 3})
				if math.Abs(float64(out[s]-want)) > 1e-3*(1+math.Abs(float64(want))) {
					t.Fatalf("subject sweep[%d] = %g, Score = %g", s, out[s], want)
				}
			}
		})
	}
}

// TestScoreAllOddDimensions exercises every model's sweep at an odd
// embedding size, where HolE's circular kernels run one four-output block
// and a three-output tail.
func TestScoreAllOddDimensions(t *testing.T) {
	for _, name := range ModelNames() {
		cfg := testConfig(7)
		if name == "conve" {
			cfg.Dim = 12 // ConvE needs a 3x3-able reshape; 12 → 3x4 stacked 6x4
		}
		m, err := New(name, cfg)
		if err != nil {
			t.Fatalf("New(%s, dim=%d): %v", name, cfg.Dim, err)
		}
		out := make([]float32, m.NumEntities())
		m.ScoreAllObjects(1, 1, out)
		for o := 0; o < m.NumEntities(); o++ {
			want := m.Score(kg.Triple{S: 1, R: 1, O: kg.EntityID(o)})
			if math.Abs(float64(out[o]-want)) > 1e-3*(1+math.Abs(float64(want))) {
				t.Fatalf("%s dim=%d: sweep[%d]=%g, Score=%g", name, cfg.Dim, o, out[o], want)
			}
		}
	}
}

func TestScoreAllBufferSizePanics(t *testing.T) {
	m, err := New("distmult", testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong buffer size")
		}
	}()
	m.ScoreAllObjects(0, 0, make([]float32, 3))
}

// TestGradientCheck verifies AccumulateGrad against central finite
// differences of Score for every parameter row the gradient touches. This
// is the strongest single correctness check for the training substrate.
func TestGradientCheck(t *testing.T) {
	tr := kg.Triple{S: 1, R: 2, O: 3}
	for _, m := range allModels(t, 8) {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			gb := NewGradBuffer(m.Params())
			_, ctx := m.ScoreWithContext(tr, nil)
			m.AccumulateGrad(tr, ctx, 1, gb)
			if gradLen(gb) == 0 {
				t.Fatal("gradient touched no parameters")
			}
			const h = 1e-2
			// TransE's L1 score has a kink wherever a residual coordinate
			// sᵢ + rᵢ − oᵢ is zero, and a central difference straddling one
			// averages the two slopes: skip those coordinates, as
			// TestGradientCheckL1TransE does.
			nearKink := func(int) bool { return false }
			if m.Name() == "transe" {
				ent, rel := m.Params().Get("entity").M, m.Params().Get("relation").M
				s, r, o := ent.Row(int(tr.S)), rel.Row(int(tr.R)), ent.Row(int(tr.O))
				nearKink = func(i int) bool { return math.Abs(float64(s[i]+r[i]-o[i])) < 2*h }
			}
			checked := 0
			forEachGrad(gb, func(p *Param, row int, grad []float32) {
				w := p.M.Row(row)
				for i := range w {
					if nearKink(i) {
						continue
					}
					orig := w[i]
					w[i] = orig + h
					up := float64(m.Score(tr))
					w[i] = orig - h
					down := float64(m.Score(tr))
					w[i] = orig
					fd := (up - down) / (2 * h)
					got := float64(grad[i])
					tol := 5e-2 * (1 + math.Abs(fd))
					if math.Abs(fd-got) > tol {
						t.Errorf("%s[%d][%d]: analytic %.5f, finite-diff %.5f",
							p.Name, row, i, got, fd)
					}
					checked++
				}
			})
			if checked == 0 {
				t.Fatal("no gradient entries checked")
			}
		})
	}
}

// TestGradientCheckL1TransE covers the non-smooth L1 distance variant at a
// generic point (Xavier-initialized parameters are almost surely away from
// the kinks).
func TestGradientCheckL1TransE(t *testing.T) {
	m, err := NewTransE(testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	tr := kg.Triple{S: 0, R: 1, O: 2}
	gb := NewGradBuffer(m.Params())
	m.AccumulateGrad(tr, nil, 1, gb)
	// Residuals per coordinate, to skip coordinates near the |·| kink where
	// a finite difference straddles the non-differentiable point.
	s := m.Params().Get("entity").M.Row(0)
	r := m.Params().Get("relation").M.Row(1)
	o := m.Params().Get("entity").M.Row(2)
	resid := make([]float64, len(s))
	for i := range s {
		resid[i] = float64(s[i] + r[i] - o[i])
	}
	const h = 1e-4
	forEachGrad(gb, func(p *Param, row int, grad []float32) {
		w := p.M.Row(row)
		for i := range w {
			if math.Abs(resid[i]) < 10*h {
				continue
			}
			orig := w[i]
			w[i] = orig + h
			up := float64(m.Score(tr))
			w[i] = orig - h
			down := float64(m.Score(tr))
			w[i] = orig
			fd := (up - down) / (2 * h)
			if math.Abs(fd-float64(grad[i])) > 5e-2 {
				t.Errorf("%s[%d][%d]: analytic %.5f, finite-diff %.5f", p.Name, row, i, grad[i], fd)
			}
		}
	})
}

// TestTransERejectsBadNorm holds both checkpoint loaders to the one TransE
// distance left, L1. A Config recording norm 2 (squared L2, once selectable)
// or 3 is refused with an error naming the norm, whether it sits in a flat
// header's norm slot or in a gob snapshot's Config; norm 0 and norm 1, which
// both meant L1, load the same weights.
func TestTransERejectsBadNorm(t *testing.T) {
	m, err := New("transe", flatTestConfig("transe"))
	if err != nil {
		t.Fatal(err)
	}
	scrambleWeights(m, 7)
	want := Fingerprint(m)
	var flat bytes.Buffer
	if err := SaveFlat(m, &flat); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// flatWithNorm rewrites the header's norm slot (after the magic, the
	// version, the header size, the length-prefixed name and four Config
	// words) and both checksums.
	flatWithNorm := func(norm int) string {
		b := bytes.Clone(flat.Bytes())
		binary.LittleEndian.PutUint64(b[len(flatMagic)+12+len("transe")+4*8:], uint64(norm))
		hdrSize := int(binary.LittleEndian.Uint32(b[len(flatMagic)+4:]))
		binary.LittleEndian.PutUint32(b[hdrSize-4:], crc32.ChecksumIEEE(b[:hdrSize-4]))
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		path := filepath.Join(dir, fmt.Sprintf("norm%d.kgf", norm))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// gobWithNorm writes a snapshot whose Config carries Norm, as every gob
	// checkpoint written while Config had the field does.
	gobWithNorm := func(norm int) string {
		var snap struct {
			ModelName string
			Config    struct {
				NumEntities, NumRelations, Dim        int
				Seed                                  int64
				Norm                                  int
				ConvEHeight, ConvEWidth, ConvEFilters int
			}
			ParamList []paramRecord
		}
		cfg := flatTestConfig("transe")
		snap.ModelName = "transe"
		snap.Config.NumEntities, snap.Config.NumRelations = cfg.NumEntities, cfg.NumRelations
		snap.Config.Dim, snap.Config.Seed, snap.Config.Norm = cfg.Dim, cfg.Seed, norm
		for _, p := range m.Params().List() {
			snap.ParamList = append(snap.ParamList, paramRecord{Name: p.Name, Rows: p.M.Rows, Cols: p.M.Cols, Data: p.M.Data})
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("norm%d.kge", norm))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	openFlat := func(path string) (Model, error) {
		mm, err := OpenMapped(path)
		if err != nil {
			return nil, err
		}
		t.Cleanup(func() { mm.Close() })
		return mm, nil
	}
	for _, norm := range []int{0, 1, 2, 3} {
		for _, c := range []struct {
			path string
			open func(string) (Model, error)
		}{{flatWithNorm(norm), openFlat}, {gobWithNorm(norm), LoadFile}} {
			got, err := c.open(c.path)
			if norm > 1 {
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("norm %d", norm)) {
					t.Errorf("%s: load error = %v, want one naming norm %d", filepath.Base(c.path), err, norm)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", filepath.Base(c.path), err)
			}
			if fp := Fingerprint(got); fp != want {
				t.Errorf("%s: fingerprint %s, want %s", filepath.Base(c.path), fp, want)
			}
		}
	}
}

func TestDistMultIsSymmetric(t *testing.T) {
	m, err := New("distmult", testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Score(kg.Triple{S: 1, R: 0, O: 5})
	b := m.Score(kg.Triple{S: 5, R: 0, O: 1})
	if a != b {
		t.Errorf("DistMult must be symmetric: f(s,r,o)=%g, f(o,r,s)=%g", a, b)
	}
}

func TestComplExBreaksSymmetry(t *testing.T) {
	m, err := New("complex", testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Score(kg.Triple{S: 1, R: 0, O: 5})
	b := m.Score(kg.Triple{S: 5, R: 0, O: 1})
	if a == b {
		t.Error("randomly initialized ComplEx scored a triple symmetrically — the imaginary parts are not contributing")
	}
}

func TestTransEPostBatchProjectsToUnitBall(t *testing.T) {
	m, err := NewTransE(testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	// Blow up an entity row, then project.
	row := m.Params().Get("entity").M.Row(0)
	for i := range row {
		row[i] = 10
	}
	m.PostBatch(nil)
	var norm2 float64
	for _, v := range row {
		norm2 += float64(v) * float64(v)
	}
	if norm2 > 1+1e-5 {
		t.Errorf("entity norm² = %g after PostBatch, want <= 1", norm2)
	}
}

func TestConvERejectsBadGeometry(t *testing.T) {
	cfg := testConfig(8)
	cfg.ConvEHeight, cfg.ConvEWidth = 3, 3 // 9 != 8
	if _, err := NewConvE(cfg); err == nil {
		t.Fatal("accepted h*w != dim")
	}
	cfg = testConfig(2)
	cfg.ConvEHeight, cfg.ConvEWidth = 1, 2 // width < 3
	if _, err := NewConvE(cfg); err == nil {
		t.Fatal("accepted input too small for 3x3 conv")
	}
}

func TestSquarestFactors(t *testing.T) {
	for _, tc := range []struct{ d, h, w int }{
		{32, 4, 8}, {64, 8, 8}, {100, 10, 10}, {7, 1, 7}, {12, 3, 4},
	} {
		h, w := squarestFactors(tc.d)
		if h != tc.h || w != tc.w {
			t.Errorf("squarestFactors(%d) = (%d, %d), want (%d, %d)", tc.d, h, w, tc.h, tc.w)
		}
		if h*w != tc.d {
			t.Errorf("squarestFactors(%d) does not factor", tc.d)
		}
	}
}

func TestParamSetDuplicatePanics(t *testing.T) {
	ps := NewParamSet()
	ps.Add("x", 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for duplicate parameter name")
		}
	}()
	ps.Add("x", 1, 1)
}

// TestGradBufferMerge pins the arena — rows keep their slots while it grows
// by pages (128 rows of 40 floats each), and a slot reused after Reset comes
// back zeroed — and the merge rule, on reused slots: the first buffer's row
// as is, later rows added in order, and a row Merge gave it summed onto
// zeros, so a −0 it lacked becomes +0.
func TestGradBufferMerge(t *testing.T) {
	ps := NewParamSet()
	w := ps.Add("w", 600, 40)
	a, b, c := NewGradBuffer(ps), NewGradBuffer(ps), NewGradBuffer(ps)
	first := a.Row(w, 1)
	for row := 0; row < w.M.Rows; row++ {
		a.Row(w, row)[2] = float32(row + 1)
	}
	if &first[0] != &a.Row(w, 1)[0] || a.Row(w, 599)[2] != 600 || gradLen(a) != 600 {
		t.Error("rows moved or lost values while the buffer grew")
	}
	a.Reset()
	if gradLen(a) != 0 || a.Grad(w, 1) != nil {
		t.Fatal("Reset left rows behind")
	}

	negZero := float32(math.Copysign(0, -1))
	ones := make([]float32, 40)
	for i := range ones {
		ones[i] = 1
	}
	a.Axpy(w, 1, 2, ones)
	if g := a.Row(w, 3); g[2] != 0 {
		t.Errorf("a reused slot came back as %v, want zeros", g)
	}
	a.Row(w, 3)[0] = negZero
	b.Axpy(w, 1, 3, ones)
	b.Row(w, 2)[0] = 1
	c.Row(w, 2)[1] = 4
	c.Row(w, 4)[0] = negZero
	mg := a.Merge([]*GradBuffer{b, c})[0]
	if gradLen(a) != 4 {
		t.Errorf("Merge left a with %d rows, want 4", gradLen(a))
	}
	var scr GroupScratch
	merge := func(row int) []float32 { return mg.Row(row, &scr) }
	if got := merge(1); got[0] != 5 || &got[0] != &a.Grad(w, 1)[0] {
		t.Errorf("merged grad = %v, want 5 in a's own row", got)
	}
	if got := merge(2); got[0] != 1 || got[1] != 4 || got[2] != 0 {
		t.Errorf("merged new-row grad = %v, want [1 4 0 …]", got)
	}
	if got := merge(3); !math.Signbit(float64(got[0])) {
		t.Errorf("first buffer's −0 became %v, want it as is", got[0])
	}
	if got := merge(4); math.Signbit(float64(got[0])) || got[2] != 0 {
		t.Errorf("merged row 4 = %v, want +0 (0 + −0) and zeros", got)
	}
}

func TestGradBufferUnknownParamPanics(t *testing.T) {
	gb := NewGradBuffer(NewParamSet())
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown parameter")
		}
	}()
	gb.Row(NewParamSet().Add("nope", 1, 1), 0)
}

func TestSaveLoadRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, name := range ModelNames() {
		m, err := New(name, testConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		// Perturb parameters so we are not just roundtripping the seed.
		for _, p := range m.Params().List() {
			for i := range p.M.Data {
				p.M.Data[i] += float32(rng.NormFloat64()) * 0.01
			}
		}
		var buf bytes.Buffer
		if err := Save(m, &buf); err != nil {
			t.Fatalf("Save(%s): %v", name, err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load(%s): %v", name, err)
		}
		if back.Name() != name {
			t.Fatalf("loaded model is %q, want %q", back.Name(), name)
		}
		for i := 0; i < 20; i++ {
			tr := kg.Triple{
				S: kg.EntityID(rng.Intn(12)),
				R: kg.RelationID(rng.Intn(4)),
				O: kg.EntityID(rng.Intn(12)),
			}
			if got, want := back.Score(tr), m.Score(tr); got != want {
				t.Fatalf("%s: loaded model scores %v as %g, original %g", name, tr, got, want)
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	m, err := New("transe", testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.kge"
	if err := SaveFile(m, path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	tr := kg.Triple{S: 0, R: 0, O: 1}
	if back.Score(tr) != m.Score(tr) {
		t.Error("file roundtrip changed scores")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("expected error for garbage input")
	}
}
