package overlay

import (
	"slices"

	"polyclip/internal/geom"
)

// useg is a unique geometric segment of the resolved arrangement, with its
// multiplicity per input polygon. Lo is the endpoint with smaller (Y, X),
// and no two usegs intersect except at shared endpoints.
type useg struct {
	Lo, Hi geom.Point
	// WindSub/WindClip are the signed winding contributions of the
	// subject/clip copies of this segment: each original piece directed
	// Hi->Lo (downward, or -x for horizontals) adds +1, each directed
	// Lo->Hi adds -1, so that walking left-to-right (or top-to-bottom
	// across a horizontal) the region winding number changes by this
	// amount. Parity of the winding equals parity of the copy count, so
	// the even-odd rule needs no separate field.
	WindSub  int16
	WindClip int16
	// WindSubL/WindClipL are the winding numbers of the region on the
	// segment's left side (smaller x; above, for horizontals).
	WindSubL  int16
	WindClipL int16
	classify  bool // set once classified
}

// fold merges the edges of a resolved pair (see arrange.Resolve: on one
// grid, meeting only at shared vertices, coincident edges identical) into
// the unique segments with their per-operand winding, in a deterministic
// order.
func fold(subject, clip geom.Polygon) []*useg {
	n := subject.NumVertices() + clip.NumVertices()
	// The usegs are slab-allocated in blocks: the table holds one pointer
	// per unique segment and a per-entry heap object would dominate the
	// fold's allocation count. Blocks are never reallocated, so the
	// handed-out pointers stay valid.
	table := make(map[geom.Segment]*useg, n)
	var slab []useg
	add := func(a, b geom.Point, owner int) {
		var dir int16 = -1 // original piece directed Lo->Hi
		if b.Less(a) {
			a, b = b, a
			dir = +1 // original piece directed Hi->Lo
		}
		key := geom.Segment{A: a, B: b}
		u := table[key]
		if u == nil {
			if len(slab) == cap(slab) {
				slab = make([]useg, 0, 256)
			}
			slab = append(slab, useg{Lo: a, Hi: b})
			u = &slab[len(slab)-1]
			table[key] = u
		}
		if owner == 0 {
			u.WindSub += dir
		} else {
			u.WindClip += dir
		}
	}
	for owner, p := range [2]geom.Polygon{subject, clip} {
		for _, r := range p {
			for i := range r {
				j := i + 1
				if j == len(r) {
					j = 0
				}
				if r[i] != r[j] {
					add(r[i], r[j], owner)
				}
			}
		}
	}

	segs := make([]*useg, 0, len(table))
	for _, u := range table {
		if u.WindSub == 0 && u.WindClip == 0 {
			// Opposite-direction copies cancel under every fill rule. A
			// segment with even copy count but nonzero winding (e.g. two
			// same-direction copies) is kept: it matters under NonZero.
			continue
		}
		segs = append(segs, u)
	}
	// Deterministic order for reproducible stitching.
	slices.SortFunc(segs, func(a, b *useg) int {
		if a.Lo != b.Lo {
			if a.Lo.Less(b.Lo) {
				return -1
			}
			return 1
		}
		switch {
		case a.Hi.Less(b.Hi):
			return -1
		case b.Hi.Less(a.Hi):
			return 1
		default:
			return 0
		}
	})
	return segs
}
