// Package arrange is the one place operand arrangements are split and
// welded. Every engine sweeps, and the overlay engine classifies, the planar
// arrangement Resolve returns instead of raw input. Raw inputs break a sweep
// in two ways that an event schedule alone cannot repair. Self-intersecting
// rings (bowties, polygrams) carry boundary whose even-odd multiplicity
// differs from the ring walk. And near-collinear crossings computed in
// floating point land in the wrong scanbeam: the shallower the angle, the
// further the computed intersection drifts along the edges, so scheduling
// the intersection's y is not enough to keep the beam orders consistent.
//
// Resolve removes both hazards at the source, the standard snap-rounding
// route (cf. CGAL's arrangement preprocessing). Every vertex is welded onto
// the caller's power-of-two snap grid. Every edge is split at every
// intersection point the internal/isect grid finder reports, each split
// point pulled onto a parent-edge endpoint within two grid steps and welded
// too. Where a weld lands a vertex on another edge, that edge is split in
// turn, until no edge meets another anywhere but at a shared vertex.
// Operands that genuinely self-intersect then have their simple even-odd
// boundary re-extracted with the robust orientation predicate (EvenOdd
// only). A sweep whose events are the endpoint ys therefore sees no
// crossing strictly inside any beam.
package arrange

import (
	"math"
	"sort"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/isect"
	"polyclip/internal/ringstitch"
)

// maxRounds bounds the scans of one Resolve. A clean arrangement takes one
// scan, a split one a second scan that verifies the pieces; only a weld
// that lands a vertex on another edge needs a third, and over the test
// suite and the chaos sweeps none has needed a fourth.
const maxRounds = 8

// Resolve jointly resolves the operands a and b (b may be nil to resolve a
// single operand) and returns them with the crossing estimate.
//
// Afterwards every vertex lies on the eps grid (eps <= 0 means
// geom.AutoSnapEps(a, b)) and no two edges of either operand meet except
// at a vertex both share; coincident edges are split at the same vertices,
// so they are identical. Under EvenOdd, an operand whose own edges cross or
// overlap is rewritten as its simple even-odd boundary. The winding rules
// keep every ring directed as given, because re-extraction collapses
// coincident edges by parity and destroys the winding multiplicity a
// signed-count walk needs. Rings that degenerate on the grid (fewer than
// three distinct vertices, or all on one line) are dropped. An operand that
// is already on the grid and meets nothing but at shared vertices is
// returned unchanged, without copying.
//
// The int counts the non-disjoint candidate pairs the first scan evaluated,
// an estimate of the arrangement's intersection count k that comes for free
// because the scan computes every candidate's exact intersection anyway. It
// is the output-size signal the paper's output-sensitive processor
// allocation keys on: internal/core derives its slab count from it. It is
// not an exact k: candidates spanning several grid cells are counted more
// than once, and endpoint touches count alongside genuine crossings, so
// consecutive ring edges floor it at roughly the edge count. It still grows
// with arrangement density, which is all a slab heuristic needs.
func Resolve(a, b geom.Polygon, rule engine.FillRule, eps float64) (geom.Polygon, geom.Polygon, int) {
	if eps <= 0 {
		eps = geom.AutoSnapEps(a, b)
	}
	g := newGrid(eps)
	ops := [2]geom.Polygon{g.polygon(a), g.polygon(b)}
	var clean [2][][]bool // nil until the first scan has checked every edge
	var selfX [2]bool
	crossings := 0
	for round := 0; round < maxRounds; round++ {
		segs, owners, segClean := flatten(ops, clean)
		cuts, n := findCuts(segs, owners, segClean, g, &selfX)
		if round == 0 {
			crossings = n
		}
		if cuts == nil {
			break
		}
		ops, clean = rebuild(ops, cuts)
	}
	// Re-extraction only selects and re-links existing edges, so the
	// arrangement stays planar.
	if rule == engine.EvenOdd {
		for oi := range ops {
			if selfX[oi] {
				ops[oi] = extractEvenOdd(ops[oi].Edges())
			}
		}
	}
	return ops[0], ops[1], crossings
}

// ResolvePair is Resolve(a, b, engine.EvenOdd, 0) without the estimate.
//
// Deprecated: call Resolve. Kept only for the perfbench harness, which
// times the arrangement layer through this name.
func ResolvePair(a, b geom.Polygon) (geom.Polygon, geom.Polygon) {
	a, b, _ = Resolve(a, b, engine.EvenOdd, 0)
	return a, b
}

// grid is the weld: quantization onto a power-of-two lattice. It is a pure
// function of the coordinate, so the same arrangement vertex reached
// through different edges lands on the identical representative, and it
// rounds exactly as geom.SnapPolygon does, so geometry a caller snapped
// onto the same grid arrives bit-identical. An unusable step (an infinite
// extent) leaves points where they are.
type grid struct{ eps, inv float64 }

func newGrid(eps float64) grid {
	if math.IsInf(eps, 0) || math.IsNaN(eps) {
		return grid{}
	}
	return grid{eps: eps, inv: 1 / eps}
}

func (g grid) snap(p geom.Point) geom.Point {
	if g.eps == 0 {
		return p
	}
	return geom.Point{X: math.Round(p.X*g.inv) * g.eps, Y: math.Round(p.Y*g.inv) * g.eps}
}

// polygon welds p onto the grid (geom.SnapPolygon: consecutive duplicates
// merged, rings under three vertices dropped) and drops rings the weld
// leaves on one line. Welding can flatten a ring whose true extent is below
// the grid step (an extreme-aspect sliver next to a much larger operand).
// Such a ring covers no area under any fill rule, but its coincident edges
// poison a sweep's winding walk. A polygon with nothing to change is
// returned as is; rings of fewer than three vertices, which no scan sees,
// then pass through too.
func (g grid) polygon(p geom.Polygon) geom.Polygon {
	if g.holds(p) {
		return p
	}
	out := make(geom.Polygon, 0, len(p))
	for _, r := range geom.SnapPolygon(p, g.eps) {
		if !ringCollinear(r) {
			out = append(out, r)
		}
	}
	return out
}

// holds reports whether every ring of p with three or more vertices is
// already on the grid, free of consecutive duplicates and not collinear.
func (g grid) holds(p geom.Polygon) bool {
	for _, r := range p {
		if len(r) < 3 {
			continue
		}
		for i, pt := range r {
			if g.snap(pt) != pt || pt == r[(i+1)%len(r)] {
				return false
			}
		}
		if ringCollinear(r) {
			return false
		}
	}
	return true
}

// flatten lists the edges of both operands' rings of three or more
// vertices, in ring order, with the operand (0 or 1) each belongs to and
// whether it is clean: unchanged since a scan checked it against every
// other edge. A nil clean table marks every edge dirty.
func flatten(ops [2]geom.Polygon, clean [2][][]bool) ([]geom.Segment, []uint8, []bool) {
	n := ops[0].NumVertices() + ops[1].NumVertices()
	segs := make([]geom.Segment, 0, n)
	owners := make([]uint8, 0, n)
	var segClean []bool
	if clean[0] != nil || clean[1] != nil {
		segClean = make([]bool, 0, n)
	}
	for oi, p := range ops {
		for ri, r := range p {
			if len(r) < 3 {
				continue
			}
			for i := range r {
				j := i + 1
				if j == len(r) {
					j = 0
				}
				if r[i] == r[j] {
					continue
				}
				segs = append(segs, geom.Segment{A: r[i], B: r[j]})
				owners = append(owners, uint8(oi))
				if clean[oi] != nil {
					segClean = append(segClean, clean[oi][ri][i])
				}
			}
		}
	}
	return segs, owners, segClean
}

// findCuts streams the grid finder's candidate pairs (self and
// cross-operand alike; the grid handles horizontal edges, which the
// scanbeam finder must not see), skipping pairs of two clean edges, and
// evaluates each candidate's exact intersection. Every intersection
// point is pulled onto a nearby parent endpoint (weldNearVertex) and
// welded; a welded point distinct from both endpoints of an edge cuts that
// edge there. An operand is marked in selfX when two of its own edges meet
// anywhere beyond a shared endpoint. The int counts the non-disjoint
// candidates (see Resolve).
//
// The cut table is allocated lazily, on the first cut: arrangements that
// only touch at shared vertices — the common clean GIS-style case —
// complete the scan without materializing any per-edge state. Candidates
// sharing several grid cells are streamed more than once; the logic is
// idempotent under revisits (duplicate cut points collapse in rebuild's
// dedup, selfX is sticky).
func findCuts(segs []geom.Segment, owners []uint8, clean []bool, g grid, selfX *[2]bool) ([][]geom.Point, int) {
	var cuts [][]geom.Point
	cut := func(e int32, pt geom.Point) bool {
		if pt == segs[e].A || pt == segs[e].B {
			return false
		}
		if cuts == nil {
			cuts = make([][]geom.Point, len(segs))
		}
		cuts[e] = append(cuts[e], pt)
		return true
	}
	n := 0
	isect.VisitCandidatePairs(segs, func(i, j int32) bool {
		if clean != nil && clean[i] && clean[j] {
			return true
		}
		si, sj := segs[i], segs[j]
		kind, p0, p1 := geom.SegIntersection(si, sj)
		if kind == geom.Disjoint {
			return true
		}
		n++
		pts := [2]geom.Point{p0, p1}
		npts := 1
		if kind == geom.Overlapping {
			npts = 2
		}
		interior := kind == geom.Overlapping
		for _, pt := range pts[:npts] {
			pt = g.snap(weldNearVertex(pt, si, sj, g.eps))
			ci := cut(i, pt)
			cj := cut(j, pt)
			interior = interior || ci || cj
		}
		if interior && owners[i] == owners[j] {
			selfX[owners[i]] = true
		}
		return true
	})
	return cuts, n
}

// weldNearVertex pulls an intersection point onto a nearby endpoint of
// either parent edge. Snap rounding demands it: a crossing that lands
// within a cell or two of an existing vertex (a near-tangency, e.g. one
// polygon's apex grazing the other's edge) otherwise rounds to a grid
// point *adjacent* to that vertex, leaving the vertex in the interior of a
// sub-segment with no node there. Welding onto the endpoint turns the
// near-tangency into an exact T-vertex instead.
func weldNearVertex(q geom.Point, e1, e2 geom.Segment, eps float64) geom.Point {
	lim := 2 * eps
	best, bestD := q, lim*lim
	for _, v := range [4]geom.Point{e1.A, e1.B, e2.A, e2.B} {
		dx, dy := q.X-v.X, q.Y-v.Y
		if d := dx*dx + dy*dy; d < bestD {
			best, bestD = v, d
		}
	}
	return best
}

// rebuild re-walks every ring with its cut points inserted in order along
// each edge, consecutive duplicates merged and degenerate rings dropped (as
// in grid.polygon). The iteration mirrors flatten so the cut lists line up.
// It returns the new clean table: an edge no cut touched stays clean, every
// piece of a cut edge is dirty until the next scan.
func rebuild(ops [2]geom.Polygon, cuts [][]geom.Point) ([2]geom.Polygon, [2][][]bool) {
	var out [2]geom.Polygon
	var clean [2][][]bool
	ei := 0
	for oi, p := range ops {
		for _, r := range p {
			if len(r) < 3 {
				continue
			}
			nr := make(geom.Ring, 0, len(r))
			nc := make([]bool, 0, len(r))
			push := func(pt geom.Point, ok bool) {
				if len(nr) > 0 && nr[len(nr)-1] == pt {
					nc[len(nc)-1] = nc[len(nc)-1] && ok
					return
				}
				nr = append(nr, pt)
				nc = append(nc, ok)
			}
			for i := range r {
				j := i + 1
				if j == len(r) {
					j = 0
				}
				if r[i] == r[j] {
					continue
				}
				cs := cuts[ei]
				ei++
				push(r[i], len(cs) == 0)
				if len(cs) > 1 {
					a, d := r[i], r[j].Sub(r[i])
					sort.Slice(cs, func(x, y int) bool {
						return cs[x].Sub(a).Dot(d) < cs[y].Sub(a).Dot(d)
					})
				}
				for _, c := range cs {
					push(c, false)
				}
			}
			for len(nr) > 1 && nr[len(nr)-1] == nr[0] {
				nr, nc = nr[:len(nr)-1], nc[:len(nc)-1]
			}
			if len(nr) >= 3 && !ringCollinear(nr) {
				out[oi] = append(out[oi], nr)
				clean[oi] = append(clean[oi], nc)
			}
		}
	}
	return out, clean
}

// ringCollinear reports whether every vertex of r lies on one line (the
// first edge's supporting line; consecutive duplicates are already removed,
// so r[0] != r[1]).
func ringCollinear(r geom.Ring) bool {
	for i := 2; i < len(r); i++ {
		if geom.Orient(r[0], r[1], r[i]) != geom.Collinear {
			return false
		}
	}
	return true
}

// extractEvenOdd recovers the simple boundary of the even-odd region covered
// by an edge multiset that has already been split at all intersections and
// welded: edges meet only at shared exact vertices. Coincident edges with
// even multiplicity separate regions of equal parity and vanish; odd groups
// are boundary once. Each boundary edge is directed with the region interior
// on its left — decided by exact ray parity with the robust orientation
// predicate, not by any epsilon — and the directed soup is stitched into
// counter-clockwise outer rings and clockwise holes.
func extractEvenOdd(edges []geom.Segment) geom.Polygon {
	type ekey struct{ ax, ay, bx, by float64 }
	counts := make(map[ekey]int, len(edges))
	for _, s := range edges {
		if s.A == s.B {
			continue
		}
		a, b := s.A, s.B
		if b.Less(a) {
			a, b = b, a
		}
		counts[ekey{a.X, a.Y, b.X, b.Y}]++
	}
	bd := make([]geom.Segment, 0, len(counts))
	for k, c := range counts {
		if c%2 == 1 {
			bd = append(bd, geom.Segment{A: geom.Point{X: k.ax, Y: k.ay}, B: geom.Point{X: k.bx, Y: k.by}})
		}
	}
	// Deterministic classification and stitch order regardless of map
	// iteration.
	sort.Slice(bd, func(i, j int) bool {
		if bd[i].A != bd[j].A {
			return bd[i].A.Less(bd[j].A)
		}
		return bd[i].B.Less(bd[j].B)
	})

	dir := make([]ringstitch.Edge, 0, len(bd))
	for _, e := range bd {
		m := e.Midpoint()
		if e.A.X == e.B.X {
			// Vertical edge: parity of boundary edges strictly left of m
			// along the leftward horizontal ray. Half-open in y so a vertex
			// exactly at m.Y counts once; Orient is Collinear for edges
			// through m (including e itself), which contribute nothing.
			parity := false
			for _, f := range bd {
				if (f.A.Y > m.Y) != (f.B.Y > m.Y) {
					lo, hi := f.A, f.B
					if lo.Y > hi.Y {
						lo, hi = hi, lo
					}
					if geom.Orient(lo, hi, m) == geom.Clockwise {
						parity = !parity
					}
				}
			}
			lo, hi := e.A, e.B
			if lo.Y > hi.Y {
				lo, hi = hi, lo
			}
			if parity {
				// Interior on the left: boundary walks upward.
				dir = append(dir, ringstitch.Edge{From: lo, To: hi})
			} else {
				dir = append(dir, ringstitch.Edge{From: hi, To: lo})
			}
		} else {
			// Non-vertical edge: parity of boundary edges strictly below m
			// along the downward vertical ray.
			parity := false
			for _, f := range bd {
				if (f.A.X > m.X) != (f.B.X > m.X) {
					lo, hi := f.A, f.B
					if lo.X > hi.X {
						lo, hi = hi, lo
					}
					if geom.Orient(lo, hi, m) == geom.CounterClockwise {
						parity = !parity
					}
				}
			}
			lo, hi := e.A, e.B
			if lo.X > hi.X {
				lo, hi = hi, lo
			}
			if parity {
				// Interior below: boundary walks toward -x.
				dir = append(dir, ringstitch.Edge{From: hi, To: lo})
			} else {
				dir = append(dir, ringstitch.Edge{From: lo, To: hi})
			}
		}
	}
	return ringstitch.Stitch(dir)
}
