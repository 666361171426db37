package geom

import "math"

// AutoSnapEps picks the vertex-snapping grid for a clipping run over the two
// operands: proportional to the data magnitude, and shared by every worker
// of one run so seam geometry produced independently (e.g. by different slab
// workers) quantizes identically. Previously re-derived separately by the
// overlay engine and the slab decomposition; this is the one policy both
// compose.
func AutoSnapEps(a, b Polygon) float64 {
	box := a.BBox().Union(b.BBox())
	m := box.Width()
	if h := box.Height(); h > m {
		m = h
	}
	// The grid must also respect the absolute coordinate magnitude:
	// float64 cannot address (and int64 cannot index) positions finer than
	// a relative 1e-12 of the largest coordinate.
	for _, v := range [...]float64{box.MinX, box.MaxX, box.MinY, box.MaxY} {
		if a := math.Abs(v); a > m && !math.IsInf(a, 0) {
			m = a
		}
	}
	if m <= 0 {
		m = 1
	}
	// Round the grid up to a power of two so quantizing binary-representable
	// coordinates (integers, halves, ...) is exact and outputs stay clean.
	return math.Pow(2, math.Ceil(math.Log2(m*RelEps)))
}

// SnapPolygon quantizes every vertex onto the eps grid — the same rounding
// arrange.Resolve welds with, so geometry snapped here and geometry
// resolved inside a downstream sweep quantize identically.
// Consecutive duplicate vertices are merged and rings that degenerate below
// three distinct vertices are dropped. eps <= 0 returns p unchanged.
func SnapPolygon(p Polygon, eps float64) Polygon {
	if eps <= 0 {
		return p
	}
	inv := 1 / eps
	snap := func(v float64) float64 { return math.Round(v*inv) * eps }
	out := make(Polygon, 0, len(p))
	for _, r := range p {
		nr := make(Ring, 0, len(r))
		for _, pt := range r {
			q := Point{X: snap(pt.X), Y: snap(pt.Y)}
			if len(nr) == 0 || q != nr[len(nr)-1] {
				nr = append(nr, q)
			}
		}
		for len(nr) > 1 && nr[len(nr)-1] == nr[0] {
			nr = nr[:len(nr)-1]
		}
		if len(nr) >= 3 {
			out = append(out, nr)
		}
	}
	return out
}
