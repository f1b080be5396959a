package vecmath

import (
	"math/rand"
	"testing"
)

func randI8(rng *rand.Rand, n int) []int8 {
	v := make([]int8, n)
	for i := range v {
		v[i] = int8(rng.Intn(255) - 127)
	}
	return v
}

// naive int64 references: the kernels must match them exactly (integer
// arithmetic is associative, so unrolling may not change anything).
func TestInt8KernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 16, 31, 64, 129} {
		a, b := randI8(rng, n), randI8(rng, n)
		var dot, l1 int64
		for i := range a {
			ai, bi := int64(a[i]), int64(b[i])
			dot += ai * bi
			d := ai - bi
			if d < 0 {
				l1 -= d
			} else {
				l1 += d
			}
		}
		if got := DotI8(a, b); int64(got) != dot {
			t.Errorf("DotI8 n=%d: got %d want %d", n, got, dot)
		}
		if got := dotI8Go(a, b); int64(got) != dot {
			t.Errorf("dotI8Go n=%d: got %d want %d", n, got, dot)
		}
		if got := L1DistI8(a, b); int64(got) != l1 {
			t.Errorf("L1DistI8 n=%d: got %d want %d", n, got, l1)
		}
	}
}

func TestInt8KernelsExtremes(t *testing.T) {
	// All-extreme inputs at a realistic width: no int32 overflow.
	n := 1024
	a, b := make([]int8, n), make([]int8, n)
	for i := range a {
		a[i], b[i] = 127, -127
	}
	if got, want := DotI8(a, b), int32(-127*127*n); got != want {
		t.Errorf("DotI8 extremes: got %d want %d", got, want)
	}
	if got, want := L1DistI8(a, b), int32(254*n); got != want {
		t.Errorf("L1DistI8 extremes: got %d want %d", got, want)
	}
}

// TestDotI8BlocksMatchPortable pins the block kernel (SSE2 on amd64) to the
// portable loop at every length around the 16-element block size, at every
// load alignment, and on the extreme bytes — −128 never comes out of the
// quantizer, but the kernel must not depend on that.
func TestDotI8BlocksMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fills := map[string]func() int8{
		"random": func() int8 { return int8(rng.Intn(256) - 128) },
		"min":    func() int8 { return -128 },
		"max":    func() int8 { return 127 },
	}
	for n := 0; n <= 160; n++ {
		for off := 0; off < 3; off++ {
			for fa, fillA := range fills {
				for fb, fillB := range fills {
					a, b := make([]int8, n+off), make([]int8, n+2*off)
					for i := range a {
						a[i] = fillA()
					}
					for i := range b {
						b[i] = fillB()
					}
					a, b = a[off:], b[2*off:]
					if got, want := DotI8(a, b), dotI8Go(a, b); got != want {
						t.Fatalf("DotI8 n=%d offset=%d %s·%s: got %d want %d", n, off, fa, fb, got, want)
					}
				}
			}
		}
	}
}

func TestInt8KernelsPanicOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DotI8 length mismatch did not panic")
		}
	}()
	DotI8(make([]int8, 3), make([]int8, 4))
}

// TestMatVecRangeBitIdentity pins the contract prune's block rescoring
// depends on: aligned partial ranges reproduce the whole-matrix MatVec
// bit for bit, including the Dot tail when the range ends at M.Rows.
func TestMatVecRangeBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, rows := range []int{5, 8, 11, 50, 103} {
		for _, cols := range []int{3, 8, 17, 64} {
			m := NewMatrix(rows, cols)
			x := make([]float32, cols)
			for i := range m.Data {
				m.Data[i] = rng.Float32()*2 - 1
			}
			for i := range x {
				x[i] = rng.Float32()*2 - 1
			}
			want := make([]float32, rows)
			MatVec(want, m, x)

			got := make([]float32, rows)
			// Score one aligned 4-block at a time, exactly as prune does.
			for lo := 0; lo < rows; lo += 4 {
				hi := lo + 4
				if hi > rows {
					hi = rows
				}
				MatVecRange(got, m, x, lo, hi)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rows=%d cols=%d: row %d differs: %x vs %x",
						rows, cols, i, got[i], want[i])
				}
			}
		}
	}
}
