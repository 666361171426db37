package overlay

import (
	"context"
	"sort"

	"polyclip/internal/geom"
	"polyclip/internal/par"
	"polyclip/internal/scanbeam"
	"polyclip/internal/segtree"
)

// classify computes, for every unique sub-segment, whether the region on its
// "left side" is inside the subject and inside the clip polygon. For a
// non-horizontal segment, the left side is the smaller-x side (travelling
// upward); for a horizontal segment it is the side above (travelling +x).
// In both cases the flags are constant along the segment because the
// resolved arrangement has no interior crossings.
//
// Non-horizontal segments are classified with the parity prefix sums of
// Lemma 3 in the first scanbeam they span. Horizontal segments span no beam;
// they lie on a beam boundary and are classified by the crossing parity of
// the beam directly above along that boundary line. (The paper removes
// horizontal edges by perturbation; counting parity strictly inside beams
// makes that unnecessary.)
//
// Cancellation is polled per beam chunk; on a cancelled ctx classification
// is partial and the caller must discard the arrangement.
func classify(ctx context.Context, segs []*useg, p int) {
	n := len(segs)
	if n == 0 {
		return
	}
	ys := make([]float64, 0, 2*n)
	for _, s := range segs {
		ys = append(ys, s.Lo.Y, s.Hi.Y)
	}
	ys = segtree.Dedup(ys)
	if len(ys) < 2 {
		return
	}
	tree := segtree.Build(ys, n, func(i int32) segtree.Interval {
		return segtree.Interval{Lo: segs[i].Lo.Y, Hi: segs[i].Hi.Y}
	}, p)
	beams, _ := tree.AllBeams(p)

	// firstBeam[i]: the beam whose bottom boundary is segs[i].Lo.Y. Only the
	// goroutine that owns that beam classifies segment i, so the parallel
	// loop below is race-free. Horizontal segments get -1.
	firstBeam := make([]int, n)
	par.ForEachItemGrain(n, p, 512, func(i int) {
		if segs[i].Lo.Y == segs[i].Hi.Y {
			firstBeam[i] = -1
			return
		}
		firstBeam[i] = sort.SearchFloat64s(ys, segs[i].Lo.Y)
	})

	par.ForEach(len(beams), p, func(blo, bhi int) {
		scratch := scanbeam.Get()
		defer scanbeam.Put(scratch)
		for b := blo; b < bhi; b++ {
			if (b-blo)&63 == 0 && canceled(ctx) {
				return
			}
			classifyBeam(segs, ys, beams[b], firstBeam, b, scratch)
		}
	})

	classifyHorizontals(ctx, segs, ys, beams, p)
}

// classifyBeam runs Lemma 3's parity prefix sums over one scanbeam.
func classifyBeam(segs []*useg, ys []float64, ids []int32, firstBeam []int, b int, scratch *scanbeam.Scratch) {
	if len(ids) == 0 {
		return
	}
	ymid := (ys[b] + ys[b+1]) / 2
	order := scratch.Entries(len(ids))
	for k, id := range ids {
		s := segs[id]
		order[k] = scanbeam.Entry{X: geom.Segment{A: s.Lo, B: s.Hi}.XAtY(ymid), ID: id}
	}
	scanbeam.SortByX(order)

	// Lemma 3 generalized: running winding numbers of subject / clip
	// copies to the left (their parities are the paper's 0/1 prefix
	// sums).
	var windSub, windClip int16
	for _, e := range order {
		s := segs[e.ID]
		if firstBeam[e.ID] == b && !s.classify {
			s.WindSubL = windSub
			s.WindClipL = windClip
			s.classify = true
		}
		windSub += s.WindSub
		windClip += s.WindClip
	}
}

// classifyHorizontals sets the above-side parities of horizontal segments.
// The insideness immediately above a horizontal segment h = [x1, x2] at
// height y equals the crossing parity, along the line just above y, of the
// segments in the beam above with x(y) <= x1: after resolution no segment
// crosses the open strip above h, and segments emanating from h's endpoints
// count consistently on both sides.
func classifyHorizontals(ctx context.Context, segs []*useg, ys []float64, beams [][]int32, p int) {
	m := len(ys) - 1
	byBoundary := make(map[int][]int32)
	for i, s := range segs {
		if s.Lo.Y != s.Hi.Y {
			continue
		}
		b := sort.SearchFloat64s(ys, s.Lo.Y)
		byBoundary[b] = append(byBoundary[b], int32(i))
	}
	if len(byBoundary) == 0 {
		return
	}
	bounds := make([]int, 0, len(byBoundary))
	for b := range byBoundary {
		bounds = append(bounds, b)
	}
	sort.Ints(bounds)

	par.ForEachItem(len(bounds), p, func(bi int) {
		if canceled(ctx) {
			return
		}
		b := bounds[bi]
		y := ys[b]
		// Cumulative parities over the beam above, ordered by x at y.
		type entry struct {
			x        float64
			sub, cli int16
		}
		var order []entry
		if b < m {
			for _, id := range beams[b] {
				s := segs[id]
				order = append(order, entry{
					x:   geom.Segment{A: s.Lo, B: s.Hi}.XAtY(y),
					sub: s.WindSub,
					cli: s.WindClip,
				})
			}
			sort.Slice(order, func(a, c int) bool { return order[a].x < order[c].x })
		}
		cumSub := make([]int16, len(order)+1)
		cumClip := make([]int16, len(order)+1)
		for i, e := range order {
			cumSub[i+1] = cumSub[i] + e.sub
			cumClip[i+1] = cumClip[i] + e.cli
		}
		for _, id := range byBoundary[b] {
			s := segs[id]
			x1 := s.Lo.X
			// Count segments with x <= x1 (inclusive ties: segments through
			// h's left endpoint separate the strip from the region left of
			// it).
			k := sort.Search(len(order), func(i int) bool { return order[i].x > x1 })
			s.WindSubL = cumSub[k]
			s.WindClipL = cumClip[k]
			s.classify = true
		}
	})
}

// dirEdge is a directed contributing edge: the clipping result's interior
// lies to its geometric left.
type dirEdge struct {
	from, to geom.Point
}

// selectEdges applies Lemma 2's contributing test for the operation under
// the fill rule: a sub-segment contributes exactly when the operation's
// value differs between its two sides. The edge is directed so the result
// interior is on its left (Lo->Hi exactly when the left side is interior),
// which makes stitched outer rings counter-clockwise and holes clockwise.
func selectEdges(segs []*useg, op Op, rule FillRule, p int) []dirEdge {
	keep := make([]int32, 0, len(segs))
	marks := make([]bool, len(segs))
	par.ForEachItemGrain(len(segs), p, 512, func(i int) {
		s := segs[i]
		leftIn := op.Eval(rule.Inside(s.WindSubL), rule.Inside(s.WindClipL))
		rightIn := op.Eval(rule.Inside(s.WindSubL+s.WindSub), rule.Inside(s.WindClipL+s.WindClip))
		marks[i] = leftIn != rightIn
	})
	for i, m := range marks {
		if m {
			keep = append(keep, int32(i))
		}
	}
	out := make([]dirEdge, len(keep))
	for k, i := range keep {
		s := segs[i]
		if op.Eval(rule.Inside(s.WindSubL), rule.Inside(s.WindClipL)) {
			// Left side interior: travel Lo -> Hi (upward, or +x for a
			// horizontal segment).
			out[k] = dirEdge{s.Lo, s.Hi}
		} else {
			out[k] = dirEdge{s.Hi, s.Lo}
		}
	}
	return out
}
