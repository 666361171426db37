// Package overlay implements general polygon clipping — intersection, union,
// difference and symmetric difference of arbitrary (concave,
// multi-contour, self-intersecting) polygons under every fill rule
// (EvenOdd, NonZero, Positive, Negative).
//
// The engine is the practical realization of the paper's Algorithm 1:
//
//  1. Resolve the pair's arrangement once (internal/arrange: the paper's
//     Step 3.2 / Lemma 4 intersections, split and welded onto one grid), so
//     no two edges cross except at shared vertices (the k and k' vertices).
//  2. Fold the resolved edges into unique segments carrying each operand's
//     signed winding contribution.
//  3. Decompose the plane into scanbeams and classify every segment with
//     the prefix sums of Lemmas 1–3, generalized to winding counts: how
//     many times does each polygon wind around the region immediately left
//     of the segment?
//  4. Select the segments where the clipping operation changes value
//     across them (Lemma 2's contributing edges), direct them so the result
//     interior lies on their left, and stitch them into output rings
//     (Step 3.4/Step 4's merge).
//
// Classification and selection run in parallel over their natural units
// (scanbeams, segments) with configurable parallelism.
package overlay

import (
	"context"

	"polyclip/internal/arrange"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/guard"
	"polyclip/internal/par"
)

// Op aliases the canonical operation type (see internal/engine).
type Op = engine.Op

// Supported clipping operations.
const (
	Intersection = engine.Intersection // subject ∩ clip
	Union        = engine.Union        // subject ∪ clip
	Difference   = engine.Difference   // subject − clip
	Xor          = engine.Xor          // symmetric difference
)

// FillRule aliases the canonical fill-rule type (see internal/engine).
type FillRule = engine.FillRule

// Supported fill rules.
const (
	// EvenOdd (default): a point is inside when its crossing parity is odd
	// — the rule of GPC and of the paper's self-intersection handling.
	EvenOdd = engine.EvenOdd
	// NonZero: a point is inside when its winding number is nonzero — the
	// rule of most vector graphics models.
	NonZero = engine.NonZero
)

// Options configures a clipping run.
type Options struct {
	// Parallelism is the number of concurrent workers; <= 0 means
	// GOMAXPROCS.
	Parallelism int
	// SnapEps is the vertex grid the arrangement is welded onto; <= 0
	// means geom.AutoSnapEps of the operands.
	SnapEps float64
	// Rule is the fill rule for interpreting both operands and the result.
	Rule FillRule
}

// Clip computes `subject op clip` and returns the result polygon. The
// result's outer rings are counter-clockwise and its holes clockwise; an
// empty polygon is returned when the result is empty.
func Clip(subject, clip geom.Polygon, op Op, opt Options) geom.Polygon {
	out, _ := ClipCtx(context.Background(), subject, clip, op, opt)
	return out
}

// ClipCtx is Clip with cooperative cancellation: the classification stage
// polls ctx and stops early, and a non-nil error (ctx.Err()) is returned
// instead of a partial result. With an already-satisfied context it
// behaves exactly like Clip.
func ClipCtx(ctx context.Context, subject, clip geom.Polygon, op Op, opt Options) (geom.Polygon, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	guard.Hit("overlay.clip")
	p := opt.Parallelism
	if p <= 0 {
		p = par.DefaultParallelism()
	}

	subject = sanitize(subject)
	clip = sanitize(clip)

	eps := opt.SnapEps
	if eps <= 0 {
		eps = geom.AutoSnapEps(subject, clip)
	}

	// Fast paths: empty operands. Operands passed through are resolved so
	// the output convention (simple rings, CCW outers / CW holes) holds
	// even for self-intersecting inputs.
	if subject.NumVertices() == 0 {
		switch op {
		case Union, Xor:
			return finish(ctx, resolveSelf(ctx, clip, eps, opt.Rule, p))
		default:
			return nil, ctx.Err()
		}
	}
	if clip.NumVertices() == 0 {
		switch op {
		case Intersection:
			return nil, ctx.Err()
		default:
			return finish(ctx, resolveSelf(ctx, subject, eps, opt.Rule, p))
		}
	}
	// Disjoint bounding boxes: no geometry interacts.
	if !subject.BBox().Intersects(clip.BBox()) {
		switch op {
		case Intersection:
			return nil, ctx.Err()
		case Difference:
			return finish(ctx, resolveSelf(ctx, subject, eps, opt.Rule, p))
		default:
			out := resolveSelf(ctx, subject, eps, opt.Rule, p)
			return finish(ctx, append(out, resolveSelf(ctx, clip, eps, opt.Rule, p)...))
		}
	}

	// Resolve the pair jointly: every crossing or overlap, an operand's own
	// or between the operands, becomes a shared vertex on the eps grid, so
	// folding the edges by their endpoints yields the planar arrangement.
	// One joint pass matters. When both operands share geometry (A∩A,
	// shared borders), a self-crossing resolved per operand copy lands on
	// the same welded vertex in both, keeping the winding symmetric between
	// them. And a cluster of crossings a few cells apart (a near-flat sliver
	// edge grazing the other operand's vertex) is split again wherever a
	// weld lands a vertex on another edge, so no sub-segment crosses
	// another. Under EvenOdd a self-crossing operand comes back as its
	// simple even-odd boundary; the winding rules keep ring directions, and
	// hence winding multiplicity (same-direction overlapping rings, a
	// pentagram's doubly-wound centre), intact.
	subject, clip, _ = arrange.Resolve(subject, clip, opt.Rule, eps)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	segs := fold(subject, clip)
	classify(ctx, segs, p)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dirs := selectEdges(segs, op, opt.Rule, p)
	return stitch(dirs), nil
}

// finish discards a possibly-partial result when ctx was cancelled.
func finish(ctx context.Context, out geom.Polygon) (geom.Polygon, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// canceled is the cheap in-loop cancellation poll.
func canceled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// resolveSelf runs a single polygon through the pipeline (as subject with
// an empty clip under Xor, whose value is simply "inside subject"),
// resolving self-intersections and normalizing ring orientations.
func resolveSelf(ctx context.Context, poly geom.Polygon, eps float64, rule FillRule, p int) geom.Polygon {
	if poly.NumVertices() == 0 {
		return nil
	}
	poly, _, _ = arrange.Resolve(poly, nil, rule, eps)
	segs := fold(poly, nil)
	classify(ctx, segs, p)
	dirs := selectEdges(segs, Xor, rule, p)
	return stitch(dirs)
}

// sanitize removes degenerate rings.
func sanitize(poly geom.Polygon) geom.Polygon {
	var out geom.Polygon
	for _, r := range poly {
		if len(r) >= 3 {
			out = append(out, r)
		}
	}
	return out
}
