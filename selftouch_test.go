package polyclip

import (
	"math"
	"math/rand"
	"testing"

	"polyclip/internal/arrange"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

// TestSelfClipPolygram pins the self-touching-polygram regression (chaos
// seed 7 case 195): clipping a self-intersecting {11/2} polygram against
// itself must reproduce its resolved even-odd area exactly. Before operands
// were pre-resolved through internal/arrange, the two copies of each
// interior self-crossing were split at points computed with the segment
// arguments in opposite orders; SegIntersection is not bit-symmetric under
// argument swap, so the twin split points could snap to adjacent grid cells
// and break the subject/clip winding symmetry (A∩A lost the area around
// its crossings).
func TestSelfClipPolygram(t *testing.T) {
	polygram := func(cx, cy, r float64, n, k int, phase float64) Ring {
		ring := make(Ring, 0, n)
		for i := 0; i < n; i++ {
			a := phase + 2*math.Pi*float64(i*k%n)/float64(n)
			ring = append(ring, Point{X: cx + r*math.Cos(a), Y: cy + r*math.Sin(a)})
		}
		return ring
	}
	// The exact geometry of chaos seed 7 case 195.
	rng := rand.New(rand.NewSource(7 + 195*1_000_003))
	n := 5 + 2*rng.Intn(4)
	a := Polygon{polygram(0, 0, 8+4*rng.Float64(), n, 2, rng.Float64())}

	resolved, _, _ := arrange.Resolve(geom.Polygon(a), nil, engine.EvenOdd, 0)
	want := resolved.Area()
	if want <= 0 {
		t.Fatalf("oracle area = %g, want positive", want)
	}
	tol := 1e-9 * want
	for _, eng := range []struct {
		name string
		opt  Options
	}{
		{"default", Options{}},
		{"slabs", Options{Algorithm: AlgoSlabs, Threads: 4, NoFallback: true}},
		{"scanbeam", Options{Algorithm: AlgoScanbeam, Threads: 4, NoFallback: true}},
		{"vatti", Options{Algorithm: AlgoSequential, Threads: 1, NoFallback: true}},
	} {
		inter, _ := ClipWith(a, a, Intersection, eng.opt)
		union, _ := ClipWith(a, a, Union, eng.opt)
		diff, _ := ClipWith(a, a, Difference, eng.opt)
		if got := Area(inter); math.Abs(got-want) > tol {
			t.Errorf("%s: A∩A area = %.15g, want %.15g", eng.name, got, want)
		}
		if got := Area(union); math.Abs(got-want) > tol {
			t.Errorf("%s: A∪A area = %.15g, want %.15g", eng.name, got, want)
		}
		if got := Area(diff); math.Abs(got) > tol {
			t.Errorf("%s: A−A area = %.15g, want 0", eng.name, got)
		}
	}
}
