package tensor

// tile4x4 computes one full 4×4 tile of C against a packed k×4 B
// panel: c[r*cs+q] (+)= Σ_p a[r*ars+p*aps]·b[p*4+q] for r, q < 4. Each
// output element lives in one SSE lane and folds p in ascending order
// from +0 (MULPS, then ADDPS), so its bits match tileGo. The assembly
// checks no bounds: microTile does that before calling it.
//
//go:noescape
func tile4x4(c []float32, cs int, a []float32, ars, aps int, b []float32, k int, acc bool)
