// Package vatti implements the scanbeam plane-sweep clipping algorithm the
// paper parallelizes (Vatti 1992, the algorithm inside the GPC library the
// authors used for sequential clipping). The plane is swept bottom-to-top
// through scanbeams — the horizontal strips between consecutive event
// y-coordinates (edge endpoints and edge intersections, §III-B). Inside a
// scanbeam no two active edges cross, so the active edge list ordered by x
// alternates left/right bounds (Lemma 1); running even-odd parity over the
// list classifies each strip of the beam as inside or outside each input
// polygon (Lemmas 2–3), and the strips selected by the clipping operation
// are emitted as trapezoids. Adjacent beams' trapezoids are merged by
// cancelling the shared horizontal caps (the paper's virtual vertices k')
// and stitching the remaining boundary into rings (the paper's Step 4 /
// Fig. 6 merge).
//
// This is the sequential reference engine; package core parallelizes the
// per-beam work (Algorithm 1) and the slab decomposition (Algorithm 2).
package vatti

import (
	"math"
	"sort"

	"polyclip/internal/arrange"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/ringstitch"
	"polyclip/internal/scanbeam"
	"polyclip/internal/segtree"
)

// Op aliases the canonical operation type so all engines share one
// vocabulary (see internal/engine).
type Op = engine.Op

// Re-exported operations.
const (
	Intersection = engine.Intersection
	Union        = engine.Union
	Difference   = engine.Difference
	Xor          = engine.Xor
)

// Trapezoid aliases the canonical scanbeam-piece type (see internal/engine).
type Trapezoid = engine.Trapezoid

// Clip computes `subject op clip` with the sequential scanbeam sweep.
func Clip(subject, clip geom.Polygon, op Op) geom.Polygon {
	return Assemble(Trapezoids(subject, clip, op))
}

// ClipRule computes `subject op clip` under the given fill rule with the
// sequential scanbeam sweep.
func ClipRule(subject, clip geom.Polygon, op Op, rule engine.FillRule) geom.Polygon {
	return Assemble(TrapezoidsRule(subject, clip, op, rule))
}

// Trapezoids computes the even-odd trapezoid decomposition of
// `subject op clip` — the raw per-scanbeam output of the sweep, before
// merging (GPC's tristrip analogue).
func Trapezoids(subject, clip geom.Polygon, op Op) []Trapezoid {
	return TrapezoidsRule(subject, clip, op, engine.EvenOdd)
}

// TrapezoidsRule is Trapezoids under an explicit fill rule: the sweep walks
// signed winding counts, so EvenOdd, NonZero, Positive and Negative all run
// through the same beam schedule.
//
// Horizontal input edges are dropped outright rather than perturbed: the
// winding of any scanline strictly inside a beam is unaffected by edges
// lying on beam boundaries, and the boundary pieces they contribute are
// regenerated exactly as trapezoid caps. This sidesteps the paper's §III-C
// perturbation without changing the result.
func TrapezoidsRule(subject, clip geom.Polygon, op Op, rule engine.FillRule) []Trapezoid {
	subject = dropDegenerate(subject)
	clip = dropDegenerate(clip)

	// Pre-resolve the arrangement: every crossing or overlap between any
	// two edges — within an operand or across them — becomes a shared
	// welded vertex. Scheduling intersection ys on unsplit edges is not
	// enough: a near-collinear crossing's computed y can land in the wrong
	// beam, leaving two active edges crossed inside a beam and the emitted
	// trapezoid corners inverted. Under EvenOdd, self-intersecting operands
	// are additionally rewritten as simple even-odd rings; the winding rules
	// keep the split rings directed as given, because the signed-count walk
	// needs the original winding multiplicities.
	subject, clip, _ = arrange.Resolve(subject, clip, rule, 0)

	edges := scanbeam.CollectEdges(subject, clip)
	if len(edges) == 0 {
		return nil
	}

	// Event schedule: endpoint ys suffice — after resolution no two edges
	// cross strictly inside any beam.
	ys := make([]float64, 0, 2*len(edges))
	for _, ae := range edges {
		ys = append(ys, ae.Seg.A.Y, ae.Seg.B.Y)
	}
	ys = segtree.Dedup(ys)
	if len(ys) < 2 {
		return nil
	}

	// Sweep schedule and per-beam winding walk both come from the shared
	// scanbeam substrate; the sweep is sequential, so one stack scratch
	// serves every beam with zero steady-state allocation.
	sweep := scanbeam.NewSweep(ys, len(edges), func(i int32) (float64, float64) {
		return edges[i].Seg.A.Y, edges[i].Seg.B.Y
	})
	edgeAt := func(id int32) (geom.Segment, uint8, int8) {
		e := &edges[id]
		return e.Seg, e.Owner, e.Delta
	}
	var scratch scanbeam.Scratch
	var tzs []Trapezoid
	sweep.ForEachBeam(func(_ int, yb, yt float64, active []int32) {
		if len(active) >= 2 {
			scanbeam.BeamTrapezoids(&scratch, active, yb, yt, op, rule, edgeAt, &tzs)
		}
	})
	return tzs
}

// Assemble merges a trapezoid decomposition into polygons: the shared
// horizontal caps between vertically adjacent trapezoids cancel (after
// splitting caps at each other's endpoints) and the remaining directed
// boundary stitches into rings. This is the merge phase of the paper's
// Algorithm 1 (Fig. 6), in its flat single-pass form.
func Assemble(tzs []Trapezoid) geom.Polygon {
	if len(tzs) == 0 {
		return nil
	}
	// Corners of adjacent trapezoids that represent the same arrangement
	// vertex can differ by an ulp when computed through different edges
	// (e.g. the two edges of a crossing). Cluster near-identical corners
	// onto shared representatives so the edge graph balances exactly.
	tzs = snapCorners(tzs)
	// Cap intervals per boundary y: +1 for bottom caps (interior above),
	// -1 for top caps (interior below).
	type capIv struct {
		x0, x1 float64
		dir    int
	}
	caps := make(map[float64][]capIv, 64)
	var sides []ringstitch.Edge
	for _, tz := range tzs {
		if tz.R1.X > tz.L1.X {
			caps[tz.L1.Y] = append(caps[tz.L1.Y], capIv{tz.L1.X, tz.R1.X, +1})
		}
		if tz.R2.X > tz.L2.X {
			caps[tz.L2.Y] = append(caps[tz.L2.Y], capIv{tz.L2.X, tz.R2.X, -1})
		}
		// Right side up, left side down (interior on the left).
		if tz.R1 != tz.R2 {
			sides = append(sides, ringstitch.Edge{From: tz.R1, To: tz.R2})
		}
		if tz.L1 != tz.L2 {
			sides = append(sides, ringstitch.Edge{From: tz.L2, To: tz.L1})
		}
	}

	edges := ringstitch.CancelOpposites(sides)

	// Per boundary: net coverage sweep over the interval endpoints, in
	// ascending y — the caps map's iteration order is randomized per
	// process, and the emission order below decides where Stitch starts
	// each output ring, so iterating the map directly would rotate rings
	// differently on every run. The endpoint and coverage buffers are
	// reused across boundaries.
	capYs := make([]float64, 0, len(caps))
	for y := range caps {
		capYs = append(capYs, y)
	}
	sort.Float64s(capYs)
	var xs []float64
	var net []int
	for _, y := range capYs {
		ivs := caps[y]
		xs = xs[:0]
		for _, iv := range ivs {
			xs = append(xs, iv.x0, iv.x1)
		}
		xs = segtree.Dedup(xs)
		if cap(net) < len(xs)-1 {
			net = make([]int, len(xs)-1)
		}
		net = net[:len(xs)-1]
		for i := range net {
			net[i] = 0
		}
		for _, iv := range ivs {
			a := sort.SearchFloat64s(xs, iv.x0)
			b := sort.SearchFloat64s(xs, iv.x1)
			for i := a; i < b; i++ {
				net[i] += iv.dir
			}
		}
		for i, nv := range net {
			a := geom.Point{X: xs[i], Y: y}
			b := geom.Point{X: xs[i+1], Y: y}
			switch {
			case nv > 0: // interior above only: boundary traversed +x
				edges = append(edges, ringstitch.Edge{From: a, To: b})
			case nv < 0: // interior below only: boundary traversed -x
				edges = append(edges, ringstitch.Edge{From: b, To: a})
			}
		}
	}
	return ringstitch.Stitch(edges)
}

// snapCorners welds trapezoid corners that represent the same arrangement
// vertex by quantizing every coordinate onto a power-of-two grid at
// geom.RelEps of the data extent. Quantization is a pure function of the
// coordinate value, so — unlike greedy nearest-neighbour clustering, whose
// groups depend on scan order and can weld two corners while leaving a
// third, equally close one apart — corners that must cancel downstream
// always land on the identical representative. A power-of-two step keeps
// the grid exact on binary-representable inputs (integers, halves, ...).
func snapCorners(tzs []Trapezoid) []Trapezoid {
	box := geom.EmptyBBox()
	for _, tz := range tzs {
		box.Extend(tz.L1)
		box.Extend(tz.R1)
		box.Extend(tz.L2)
		box.Extend(tz.R2)
	}
	scale := math.Max(box.Width(), box.Height())
	scale = math.Max(scale, math.Max(math.Abs(box.MaxX), math.Abs(box.MaxY)))
	scale = math.Max(scale, math.Max(math.Abs(box.MinX), math.Abs(box.MinY)))
	if scale == 0 || math.IsInf(scale, 0) {
		return tzs
	}
	eps := math.Ldexp(1, int(math.Ceil(math.Log2(scale*geom.RelEps))))
	q := func(p geom.Point) geom.Point {
		return geom.Point{X: math.Round(p.X/eps) * eps, Y: math.Round(p.Y/eps) * eps}
	}
	out := make([]Trapezoid, len(tzs))
	for i, tz := range tzs {
		out[i] = Trapezoid{L1: q(tz.L1), R1: q(tz.R1), L2: q(tz.L2), R2: q(tz.R2)}
	}
	return out
}

func dropDegenerate(p geom.Polygon) geom.Polygon {
	var out geom.Polygon
	for _, r := range p {
		if len(r) >= 3 {
			out = append(out, r)
		}
	}
	return out
}

// TriStrip is a triangle strip: vertices v0 v1 v2 ... where every
// consecutive triple forms a triangle (GPC's tristrip output format for
// rendering pipelines).
type TriStrip []geom.Point

// Area returns the total area of the strip's triangles.
func (ts TriStrip) Area() float64 {
	var sum float64
	for i := 0; i+2 < len(ts); i++ {
		sum += math.Abs(ts[i+1].Sub(ts[i]).Cross(ts[i+2].Sub(ts[i]))) / 2
	}
	return sum
}

// TriStrips converts a trapezoid decomposition into triangle strips, one
// per trapezoid: (L1, R1, L2, R2), degenerating naturally for triangles.
// Together with Trapezoids this reproduces GPC's polygon-to-tristrip
// conversion: vatti.TriStrips(vatti.Trapezoids(a, b, op)).
func TriStrips(tzs []Trapezoid) []TriStrip {
	out := make([]TriStrip, 0, len(tzs))
	for _, tz := range tzs {
		strip := TriStrip{tz.L1, tz.R1, tz.L2, tz.R2}
		// Drop duplicated corners (triangle cases).
		dedup := strip[:0]
		for _, p := range strip {
			found := false
			for _, q := range dedup {
				if p == q {
					found = true
				}
			}
			if !found {
				dedup = append(dedup, p)
			}
		}
		if len(dedup) >= 3 {
			out = append(out, dedup)
		}
	}
	return out
}
