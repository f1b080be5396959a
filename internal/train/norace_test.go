//go:build !race

package train

// raceBuild reports whether the tests run under the race detector.
const raceBuild = false
