//go:build !race

package kge

// raceBuild reports whether the tests run under the race detector.
const raceBuild = false
