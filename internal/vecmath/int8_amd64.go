package vecmath

// dotI8x16 is DotI8 over whole 16-element blocks: len(a) == len(b), a
// multiple of 16. Implemented in int8_amd64.s with SSE2, which every amd64
// CPU has, so there is no feature detection.
//
//go:noescape
func dotI8x16(a, b []int8) int32
