//go:build !amd64

package vecmath

// Off amd64 there are no query-lane kernels: each of the four queries runs
// the scalar loop on its own, and Axpy runs its Go loop.

func dotLanes(dst, m, q *Matrix, j, lo, hi int, _ []float32) {
	for l := j; l < j+4; l++ {
		matVecRange(dst.Row(l), m, q.Row(l), lo, hi)
	}
}

func l1Lanes(dst, m, q *Matrix, j, lo, hi int, _ []float32) {
	for l := j; l < j+4; l++ {
		negL1Range(dst.Row(l), m, q.Row(l), lo, hi)
	}
}

func axpy(alpha float32, x, y []float32) { axpyGo(alpha, x, y) }
