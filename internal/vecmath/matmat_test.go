package vecmath

import (
	"fmt"
	"math/rand"
	"testing"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// MatMat's contract is bit-identity, not approximate equality: every dst row
// must be exactly the float32 result MatVec produces for that query. The
// shapes cover every tiling regime: fewer rows than one 4-block, rows not a
// multiple of 4 (Dot tail), rows landing exactly on a tile boundary, and
// rows crossing several tiles with a ragged final tile.
func TestMatMatBitIdenticalToMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, cols := range []int{1, 3, 5, 16, 33, 64} {
		tile := matMatTileRows(cols)
		for _, rows := range []int{1, 2, 3, 4, 7, 8, tile, tile + 1, tile + 5, 3*tile + 3} {
			for _, qRows := range []int{1, 2, 5} {
				m := randomMatrix(rng, rows, cols)
				q := randomMatrix(rng, qRows, cols)
				dst := NewMatrix(qRows, rows)
				MatMat(dst, m, q)
				want := make([]float32, rows)
				for j := 0; j < qRows; j++ {
					MatVec(want, m, q.Row(j))
					for i, v := range want {
						if dst.At(j, i) != v {
							t.Fatalf("rows=%d cols=%d q=%d: dst[%d][%d] = %g, MatVec = %g (not bit-identical)",
								rows, cols, qRows, j, i, dst.At(j, i), v)
						}
					}
				}
			}
		}
	}
}

func TestMatMatTileRows(t *testing.T) {
	for _, cols := range []int{1, 2, 16, 64, 128, 1 << 20} {
		rows := matMatTileRows(cols)
		if rows < 4 {
			t.Errorf("cols=%d: tile rows %d < 4", cols, rows)
		}
		if rows%4 != 0 {
			t.Errorf("cols=%d: tile rows %d not a multiple of 4", cols, rows)
		}
	}
	// Small embedding dims must stay within the L1 budget.
	if rows := matMatTileRows(64); rows*64*4 > matMatTileBytes {
		t.Errorf("cols=64: tile footprint %d exceeds budget", rows*64*4)
	}
}

func TestMatMatDimensionMismatchPanics(t *testing.T) {
	m := NewMatrix(8, 4)
	for _, tc := range []struct {
		name   string
		dst, q *Matrix
	}{
		{"cols", NewMatrix(2, 8), NewMatrix(2, 5)},
		{"dstRows", NewMatrix(3, 8), NewMatrix(2, 4)},
		{"dstCols", NewMatrix(2, 7), NewMatrix(2, 4)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			MatMat(tc.dst, m, tc.q)
		}()
	}
}

// BenchmarkMatVec measures the per-query sweep MatMat is compared against.
// SetBytes counts the entity-matrix traffic of one sweep, so the MB/s column
// is directly comparable with BenchmarkMatMat's per-query effective rate.
func BenchmarkMatVec(b *testing.B) {
	for _, d := range []int{64, 128} {
		b.Run(fmt.Sprintf("n=50000/d=%d", d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			m := randomMatrix(rng, 50000, d)
			x := randomVec(rng, d)
			dst := make([]float32, m.Rows)
			b.SetBytes(int64(m.Rows) * int64(d) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatVec(dst, m, x)
			}
		})
	}
}

// BenchmarkMatMat sweeps the same entity matrix with a block of queries per
// op. SetBytes counts rows·cols·4·queries — the traffic the same work costs
// as independent MatVec calls — so MB/s directly exposes the amortization.
func BenchmarkMatMat(b *testing.B) {
	for _, d := range []int{64, 128} {
		for _, k := range []int{8, 32} {
			b.Run(fmt.Sprintf("n=50000/d=%d/q=%d", d, k), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				m := randomMatrix(rng, 50000, d)
				q := randomMatrix(rng, k, d)
				dst := NewMatrix(k, m.Rows)
				b.SetBytes(int64(m.Rows) * int64(d) * 4 * int64(k))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMat(dst, m, q)
				}
			})
		}
	}
}
