//go:build !race

package eval

// raceBuild reports whether the tests run under the race detector.
const raceBuild = false
