package vecmath

// This file holds the widening int8 kernels behind the prescreen stage of
// pruned ranking (internal/prune). Entity rows are stored symmetric-quantized
// to int8 and candidate groups first sweep the quantized copy — 4× less
// memory traffic than float32 — before the surviving shortlist is rescored
// with the exact float kernels. Both kernels accumulate in int32, which is
// exact: |a|,|b| ≤ 127 bounds every product by 16129 and every per-element
// distance term by 254, so sums stay far from overflow for any embedding
// width this codebase uses (d < 2¹⁵).

// DotI8 returns Σ aᵢ·bᵢ over int8 inputs with exact int32 accumulation.
// Integer addition is associative, so unlike the float kernels the grouping
// of the sum does not change the result: whole 16-element blocks go through
// dotI8x16 (SSE2 on amd64, dotI8Go elsewhere), the tail through a scalar
// loop, and every build returns the same number.
func DotI8(a, b []int8) int32 {
	if len(a) != len(b) {
		panic("vecmath: DotI8 length mismatch")
	}
	n := len(a) &^ 15
	s := dotI8x16(a[:n], b[:n])
	for i := n; i < len(a); i++ {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

// dotI8Go is the portable kernel, 4-way unrolled like Dot; a and b have
// equal lengths.
func dotI8Go(a, b []int8) int32 {
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += int32(a[i]) * int32(b[i])
		s1 += int32(a[i+1]) * int32(b[i+1])
		s2 += int32(a[i+2]) * int32(b[i+2])
		s3 += int32(a[i+3]) * int32(b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += int32(a[i]) * int32(b[i])
	}
	return s0 + s1 + s2 + s3
}

// L1DistI8 returns Σ |aᵢ−bᵢ| over int8 inputs with exact int32 accumulation
// (the quantized form of TransE's norm-1 sweep).
func L1DistI8(a, b []int8) int32 {
	if len(a) != len(b) {
		panic("vecmath: L1DistI8 length mismatch")
	}
	var s0, s1, s2, s3 int32
	abs := func(v int32) int32 {
		if v < 0 {
			return -v
		}
		return v
	}
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += abs(int32(a[i]) - int32(b[i]))
		s1 += abs(int32(a[i+1]) - int32(b[i+1]))
		s2 += abs(int32(a[i+2]) - int32(b[i+2]))
		s3 += abs(int32(a[i+3]) - int32(b[i+3]))
	}
	for ; i < len(a); i++ {
		s0 += abs(int32(a[i]) - int32(b[i]))
	}
	return s0 + s1 + s2 + s3
}
