package arrange

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/isect"
	"polyclip/internal/wkt"
)

// resolveOne resolves a single operand under EvenOdd on its own grid.
func resolveOne(p geom.Polygon) geom.Polygon {
	r, _, _ := Resolve(p, nil, engine.EvenOdd, 0)
	return r
}

// resolveTwo resolves an operand pair under EvenOdd on the pair's grid.
func resolveTwo(a, b geom.Polygon) (geom.Polygon, geom.Polygon) {
	ra, rb, _ := Resolve(a, b, engine.EvenOdd, 0)
	return ra, rb
}

func rect(x0, y0, x1, y1 float64) geom.Ring {
	return geom.Ring{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}}
}

func bowtie(cx, cy, w float64) geom.Ring {
	return geom.Ring{
		{X: cx - w, Y: cy - w}, {X: cx + w, Y: cy + w},
		{X: cx + w, Y: cy - w}, {X: cx - w, Y: cy + w},
	}
}

// pentagram returns the {5/2} star polygon on a circle of radius r.
func pentagram(cx, cy, r float64) geom.Ring {
	ring := make(geom.Ring, 0, 5)
	for i := 0; i < 5; i++ {
		a := math.Pi/2 + 2*math.Pi*float64(i*2%5)/5
		ring = append(ring, geom.Point{X: cx + r*math.Cos(a), Y: cy + r*math.Sin(a)})
	}
	return ring
}

// pentagramArea is the even-odd measure of a {5/2} pentagram with
// circumradius R: the five tips only — the decagon outline (5·R·r·sin36°,
// alternating outer radius R and inner-pentagon radius r = R·cos72°/cos36°)
// minus the inner pentagon ((5/2)·r²·sin72°), which even-odd excludes
// because the chords wind around it twice.
func pentagramArea(r float64) float64 {
	ri := r * math.Cos(2*math.Pi/5) / math.Cos(math.Pi/5)
	return 5*r*ri*math.Sin(math.Pi/5) - (5.0/2)*ri*ri*math.Sin(2*math.Pi/5)
}

func TestResolveFastPathLeavesSimpleInputAlone(t *testing.T) {
	p := geom.Polygon{rect(0, 0, 4, 4)}
	got := resolveOne(p)
	if len(got) != 1 || &got[0][0] != &p[0][0] {
		t.Fatalf("simple polygon should be returned unchanged, got %v", got)
	}
}

func TestResolvePairFastPathSharedVertices(t *testing.T) {
	// Checkerboard cells touch only at shared exact vertices: nothing to
	// split, nothing to re-extract.
	a := geom.Polygon{rect(0, 0, 1, 1), rect(1, 1, 2, 2)}
	b := geom.Polygon{rect(1, 0, 2, 1), rect(0, 1, 1, 2)}
	ra, rb := resolveTwo(a, b)
	if &ra[0][0] != &a[0][0] || &rb[0][0] != &b[0][0] {
		t.Fatalf("vertex-touching operands should be returned unchanged")
	}
}

func TestResolveBowtie(t *testing.T) {
	p := geom.Polygon{bowtie(0, 0, 1)}
	got := resolveOne(p)
	// The even-odd region of a bowtie is its two lobe triangles, each of
	// area ½·2·1 = 1.
	if a := got.Area(); math.Abs(a-2) > 1e-9 {
		t.Errorf("bowtie even-odd area = %v, want 2", a)
	}
	if len(got) != 2 {
		t.Errorf("bowtie resolves to %d rings, want 2", len(got))
	}
	for ri, r := range got {
		if !r.IsCCW() {
			t.Errorf("ring %d not CCW: %v", ri, r)
		}
	}
}

func TestResolvePentagram(t *testing.T) {
	p := geom.Polygon{pentagram(0, 0, 10)}
	got := resolveOne(p)
	if a, want := got.Area(), pentagramArea(10); math.Abs(a-want) > 1e-6*want {
		t.Errorf("pentagram even-odd area = %v, want %v", a, want)
	}
	// Five tip triangles; adjacent tips share an inner-pentagon vertex but
	// no area, and the interior-left stitch walk separates them there.
	if len(got) != 5 {
		t.Errorf("pentagram resolves to %d rings, want 5", len(got))
	}
}

func TestResolveDuplicatedRingCancels(t *testing.T) {
	// The same ring twice: every boundary edge has even multiplicity, so
	// the even-odd region is empty.
	r := rect(0, 0, 3, 3)
	p := geom.Polygon{r, r.Clone()}
	if got := resolveOne(p); len(got) != 0 {
		t.Errorf("doubled ring should resolve to empty, got %v", got)
	}
}

func TestResolveAdjacentRectsShareEdge(t *testing.T) {
	// Two rectangles of one operand sharing the full edge x=1: the shared
	// vertical edge appears twice, cancels, and the region re-extracts as
	// the single fused rectangle.
	p := geom.Polygon{rect(0, 0, 1, 1), rect(1, 0, 2, 1)}
	got := resolveOne(p)
	if a := got.Area(); math.Abs(a-2) > 1e-9 {
		t.Errorf("fused area = %v, want 2", a)
	}
	if len(got) != 1 {
		t.Errorf("fused region has %d rings, want 1", len(got))
	}
}

func TestResolvePairSplitsCrossings(t *testing.T) {
	a := geom.Polygon{rect(0, 0, 4, 4)}
	b := geom.Polygon{rect(2, 2, 6, 6)}
	ra, rb := resolveTwo(a, b)
	// The operands cross at (2,4) and (4,2): each ring gains both points.
	for _, want := range []geom.Point{{X: 2, Y: 4}, {X: 4, Y: 2}} {
		for name, p := range map[string]geom.Polygon{"a": ra, "b": rb} {
			found := false
			for _, v := range p[0] {
				if v == want {
					found = true
				}
			}
			if !found {
				t.Errorf("resolved %s is missing crossing vertex %v: %v", name, want, p)
			}
		}
	}
	// Areas are unchanged by splitting.
	if aa := ra.Area(); math.Abs(aa-16) > 1e-9 {
		t.Errorf("resolved a area = %v, want 16", aa)
	}
	// No two edges of the joint arrangement intersect anywhere but at
	// shared exact endpoints anymore.
	assertResolved(t, ra, rb)
}

func TestResolveSelfIntersectionsGone(t *testing.T) {
	for name, p := range map[string]geom.Polygon{
		"bowtie":    {bowtie(1, 2, 3)},
		"pentagram": {pentagram(0, 0, 7)},
	} {
		got := resolveOne(p)
		assertResolved(t, got)
		for ri, r := range got {
			if len(r) < 3 {
				t.Errorf("%s: ring %d has %d vertices", name, ri, len(r))
			}
		}
	}
}

// assertResolved fails if any two edges of the given polygons intersect
// anywhere other than a shared exact endpoint.
func assertResolved(t *testing.T, ps ...geom.Polygon) {
	t.Helper()
	for _, c := range interiorContacts(false, ps...) {
		t.Error(c)
	}
}

// interiorContacts checks the planarity contract by brute force: every
// pair of edges of the given polygons that meets must meet only at a
// vertex both share. With allowCoincident, two identical edges (the same
// two endpoints, as shared boundaries resolve to) are one arrangement edge
// and pass. It returns one message per violating pair.
func interiorContacts(allowCoincident bool, ps ...geom.Polygon) []string {
	var segs []geom.Segment
	for _, p := range ps {
		segs = append(segs, p.Edges()...)
	}
	var out []string
	for _, pr := range isect.BruteForcePairs(segs) {
		si, sj := segs[pr.I], segs[pr.J]
		kind, p0, p1 := geom.SegIntersection(si, sj)
		switch kind {
		case geom.Overlapping:
			same := (si.A == sj.A && si.B == sj.B) || (si.A == sj.B && si.B == sj.A)
			if !allowCoincident || !same {
				out = append(out, fmt.Sprintf("edges %v and %v overlap (%v..%v)", si, sj, p0, p1))
			}
		case geom.Crossing:
			sharedI := p0 == si.A || p0 == si.B
			sharedJ := p0 == sj.A || p0 == sj.B
			if !sharedI || !sharedJ {
				out = append(out, fmt.Sprintf("edges %v and %v cross at %v (not a shared endpoint)", si, sj, p0))
			}
		}
	}
	return out
}

// TestResolvePlanarityContract holds Resolve to its documented output:
// under both rule families, no two edges of the resolved pair meet except
// at a vertex both share. The first case is the committed fuzz seed
// FuzzClipAllEngines/09484f773838992f, where a single split-and-weld pass
// leaves a welded split vertex inside another edge.
func TestResolvePlanarityContract(t *testing.T) {
	type pair struct {
		name string
		a, b geom.Polygon
	}
	mustParse := func(s string) geom.Polygon {
		p, err := wkt.Unmarshal(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return p
	}
	cases := []pair{{
		name: "fuzz-09484f773838992f",
		a:    mustParse("POLYGON((0 0,1 8,7 0,0 1))"),
		b:    mustParse("POLYGON((0 0,50 .1e-8,1 0e00,00 0,00 0))"),
	}}
	files, err := filepath.Glob("../../testdata/differential/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("differential corpus not found: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var c struct{ Subject, Clip string }
		if err := json.Unmarshal(raw, &c); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		cases = append(cases, pair{filepath.Base(f), mustParse(c.Subject), mustParse(c.Clip)})
	}
	for seed := int64(1); seed <= 40; seed++ {
		a, b := data.SelfIntersectingPair(seed, 5+4*int(seed%8))
		cases = append(cases, pair{fmt.Sprintf("selfx-seed%d", seed), a, b})
	}
	for _, c := range cases {
		for _, rule := range []engine.FillRule{engine.EvenOdd, engine.NonZero} {
			ra, rb, _ := Resolve(c.a, c.b, rule, 0)
			if bad := interiorContacts(true, ra, rb); len(bad) > 0 {
				t.Errorf("%s under %v: %d interior contacts, first: %s", c.name, rule, len(bad), bad[0])
			}
		}
	}
}

func TestResolveHugeAndTinyScale(t *testing.T) {
	// The weld grid derives from geom.RelEps of the data extent, so
	// resolution behaves identically at any coordinate scale.
	for _, s := range []float64{1e100, 1, 1e-100} {
		p := geom.Polygon{bowtie(0, 0, s)}
		got := resolveOne(p)
		want := 2 * s * s
		if a := got.Area(); math.Abs(a-want) > 1e-9*want {
			t.Errorf("scale %g: area = %v, want %v", s, a, want)
		}
		if len(got) != 2 {
			t.Errorf("scale %g: %d rings, want 2", s, len(got))
		}
	}
}

func TestResolvePairExtremeAspectSliver(t *testing.T) {
	// Fuzz-found: a sliver spanning y up to 1e12 at width 1e-10 beside a
	// unit triangle. The shared weld grid derives from the joint extent
	// (eps = 1 here), which flattens the sliver onto the line x = 0; the
	// collapsed ring must be dropped, not left as coincident vertical edges
	// that break the sweep's parity walk downstream.
	tri := geom.Polygon{{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}}}
	sliver := geom.Polygon{{{X: 0, Y: 0}, {X: 0, Y: 10}, {X: 1e-10, Y: 1e12}}}
	ra, rb := resolveTwo(tri, sliver)
	if a := ra.Area(); math.Abs(a-0.5) > 1e-9 {
		t.Errorf("triangle area after resolution = %v, want 0.5", a)
	}
	if len(rb) != 0 {
		t.Errorf("collapsed sliver should be dropped, got %v", rb)
	}
	assertResolved(t, ra, rb)
}

func TestResolveDegenerateInputs(t *testing.T) {
	if got := resolveOne(nil); got != nil {
		t.Errorf("resolveOne(nil) = %v", got)
	}
	// Sub-3-vertex rings and zero-length edges pass through untouched.
	p := geom.Polygon{{{X: 0, Y: 0}, {X: 1, Y: 1}}}
	if got := resolveOne(p); len(got) != 1 {
		t.Errorf("degenerate ring not passed through: %v", got)
	}
	a, b := resolveTwo(geom.Polygon{rect(0, 0, 1, 1)}, nil)
	if len(a) != 1 || b != nil {
		t.Errorf("resolving with an empty operand changed inputs: %v %v", a, b)
	}
}
