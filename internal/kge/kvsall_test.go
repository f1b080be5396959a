package kge

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kg"
	"repro/internal/vecmath"
)

// oneContextGrad runs the KvsAll backward pass for a single context: a
// one-row chunk of AccumulateGradAllObjectsBatch.
func oneContextGrad(d *Derived, s kg.EntityID, r kg.RelationID, upstream []float32, gb *GradBuffer) {
	d.AccumulateGradAllObjectsBatch([]kg.EntityID{s}, []kg.RelationID{r},
		&vecmath.Matrix{Rows: 1, Cols: len(upstream), Data: upstream}, gb)
}

// TestKvsAllGradMatchesPerTriple verifies for every model that the KvsAll
// backward pass with upstream vector g equals the sum over objects of
// per-triple AccumulateGrad with upstream g[o] — the defining identity of
// the batched gradient.
func TestKvsAllGradMatchesPerTriple(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, m := range derivedModels(t) {
		kvs := m.(*Derived)
		t.Run(m.Name(), func(t *testing.T) {
			s, r := kg.EntityID(1), kg.RelationID(2)
			upstream := make([]float32, m.NumEntities())
			for o := range upstream {
				upstream[o] = float32(rng.NormFloat64())
			}
			// Zero a few entries to exercise the skip path.
			upstream[0], upstream[5] = 0, 0

			batched := NewGradBuffer(m.Params())
			oneContextGrad(kvs, s, r, upstream, batched)

			reference := NewGradBuffer(m.Params())
			for o := 0; o < m.NumEntities(); o++ {
				if upstream[o] == 0 {
					continue
				}
				tr := kg.Triple{S: s, R: r, O: kg.EntityID(o)}
				_, ctx := m.ScoreWithContext(tr, nil)
				m.AccumulateGrad(tr, ctx, upstream[o], reference)
			}

			if gradLen(batched) == 0 {
				t.Fatal("batched gradient touched nothing")
			}
			// Compare every row the reference touched (and vice versa).
			compareGradBuffers(t, m, batched, reference)
		})
	}
}

// forEachGrad visits every accumulated (param, row, grad) entry of gb.
func forEachGrad(gb *GradBuffer, fn func(p *Param, row int, grad []float32)) {
	for _, p := range gb.ps.List() {
		for _, row := range gb.Rows(p) {
			fn(p, int(row), gb.Grad(p, int(row)))
		}
	}
}

// gradLen returns the number of (param, row) entries gb holds.
func gradLen(gb *GradBuffer) int {
	n := 0
	forEachGrad(gb, func(*Param, int, []float32) { n++ })
	return n
}

func compareGradBuffers(t *testing.T, m Model, a, b *GradBuffer) {
	t.Helper()
	collect := func(gb *GradBuffer) map[string][]float32 {
		out := make(map[string][]float32)
		forEachGrad(gb, func(p *Param, row int, grad []float32) {
			key := p.Name + "/" + itoa(row)
			out[key] = grad
		})
		return out
	}
	am, bm := collect(a), collect(b)
	for key, ag := range am {
		bg, ok := bm[key]
		if !ok {
			// Rows touched with all-zero gradients are permitted to differ.
			if maxAbs(ag) > 1e-4 {
				t.Errorf("%s: row %s only in batched gradient (max %g)", m.Name(), key, maxAbs(ag))
			}
			continue
		}
		for i := range ag {
			diff := math.Abs(float64(ag[i] - bg[i]))
			scale := 1 + math.Abs(float64(bg[i]))
			if diff > 2e-3*scale {
				t.Errorf("%s: grad mismatch at %s[%d]: batched %g, reference %g", m.Name(), key, i, ag[i], bg[i])
				return
			}
		}
	}
	for key, bg := range bm {
		if _, ok := am[key]; !ok && maxAbs(bg) > 1e-4 {
			t.Errorf("%s: row %s only in reference gradient", m.Name(), key)
		}
	}
}

func maxAbs(xs []float32) float64 {
	var m float64
	for _, x := range xs {
		if v := math.Abs(float64(x)); v > m {
			m = v
		}
	}
	return m
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func TestKvsAllBufferSizePanics(t *testing.T) {
	m, err := New("distmult", testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	kvs := m.(*Derived)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong upstream length")
		}
	}()
	oneContextGrad(kvs, 0, 0, make([]float32, 3), NewGradBuffer(m.Params()))
}
