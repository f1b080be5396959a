//go:build race

package vecmath

// raceBuild reports whether the tests run under the race detector.
const raceBuild = true
