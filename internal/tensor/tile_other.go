//go:build !amd64

package tensor

// tile4x4 runs the portable tile where there is no assembly one.
func tile4x4(c []float32, cs int, a []float32, ars, aps int, b []float32, k int, acc bool) {
	tileGo(c, cs, a, ars, aps, b, k, acc)
}
