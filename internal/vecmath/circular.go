package vecmath

// Correlate sets dst to the circular correlation a ⋆ b and returns it:
//
//	dst[k] = Σᵢ a[i]·b[(i+k) mod l]
//
// It and Convolve are HolE's scoring and gradient kernels. Each output sums
// its l products in float64 over increasing i and rounds once to float32. A
// product of two float32 values is exact in float64, so a port that fuses
// multiply-adds computes the same bits. All three slices must have length l;
// dst may alias b but not a.
func Correlate(dst, a, b []float32) []float32 { return circular(dst, a, b, false) }

// Convolve sets dst to the circular convolution a ∗ b and returns it:
//
//	dst[k] = Σᵢ a[i]·b[(k−i) mod l]
//
// Its contract is Correlate's.
func Convolve(dst, a, b []float32) []float32 { return circular(dst, a, b, true) }

// circular computes lag m, Σᵢ a[i]·bb[i+m], for every m < l, where bb is b
// repeated (reversed for the convolution: bb[j] = b[(l−1−j) mod l]) in a
// buffer from the sweeps' pool, so no index needs a modulus. Lag m is output
// m of the correlation and output l−1−m of the convolution. Each pass over a
// feeds four lags on independent accumulators; the last may run up to three
// past l−1, into bb's three extra floats, and stores none of those.
func circular(dst, a, b []float32, conv bool) []float32 {
	l := len(a)
	if len(b) != l || len(dst) != l {
		panic("vecmath: circular kernel length mismatch")
	}
	p, bb := laneBuf(2*l + 3)
	for i, v := range b {
		if conv {
			i = l - 1 - i
		}
		bb[i] = v
	}
	for j := l; j < len(bb); j++ {
		bb[j] = bb[j-l]
	}
	for m := 0; m < l; m += 4 {
		s0, s1, s2, s3 := lags4(a, bb[m:m+l+3])
		for j, s := range [4]float64{s0, s1, s2, s3} {
			if k := m + j; k < l {
				if conv {
					k = l - 1 - k
				}
				dst[k] = float32(s)
			}
		}
	}
	lanePool.Put(p)
	return dst
}

// lags4 returns Σᵢ a[i]·w[i+j] for j = 0, 1, 2, 3, each in float64 over
// increasing i. Consecutive lags share all but one element of w, so each
// step loads one and shifts the other three along.
func lags4(a, w []float32) (s0, s1, s2, s3 float64) {
	w0, w1, w2 := float64(w[0]), float64(w[1]), float64(w[2])
	w = w[3:]
	w = w[:len(a)]
	for i, x := range a {
		y, w3 := float64(x), float64(w[i])
		s0 += y * w0
		s1 += y * w1
		s2 += y * w2
		s3 += y * w3
		w0, w1, w2 = w1, w2, w3
	}
	return s0, s1, s2, s3
}
