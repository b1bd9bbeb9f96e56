//go:build !race

package bench

// raceBuild reports whether the race detector instruments this test binary,
// which slows the self-checks past the paper's absolute bound.
const raceBuild = false
