//go:build !amd64

package vecmath

func dotI8x16(a, b []int8) int32 { return dotI8Go(a, b) }
