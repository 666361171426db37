package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"polyclip/internal/acache"
	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/prepared"
	"polyclip/internal/tile"
)

// The tiles workload: tile.Cut of data.TileLayer layers over a full
// z0..tilesMaxZoom pyramid. A run cycles through tilesLayerCount layers made
// from the seed, so one unusually cheap or costly layer moves its figures
// less. Each iteration cuts one layer twice: cold, with no cache,
// so the cut pays canonicalization, then warm, through a cache already
// holding the layer's canonical form (the repeated-layer case the serving
// path's shared cache makes common). Most tiles settle on the prepared
// layer's fast paths without a sweep.
const (
	tilesRings      = 32
	tilesLayerCount = 16
	tilesMaxZoom    = 5
	// tilesAreaTol is the relative tolerance between one zoom's summed tile
	// areas and the area of layer ∩ extent.
	tilesAreaTol = 1e-6
)

// tilesInputs is the workload's layer, pyramid and reference area.
type tilesInputs struct {
	layer geom.Polygon
	spec  tile.Spec
	want  float64 // |layer ∩ extent|
}

func tilesSetup(seed int64) []tilesInputs {
	var out []tilesInputs
	for i := int64(0); i < tilesLayerCount; i++ {
		layer := data.TileLayer(data.TileLayerOptions{Rings: tilesRings, Seed: seed*tilesLayerCount + i})
		spec := tile.Spec{MinZoom: 0, MaxZoom: tilesMaxZoom, Extent: tile.SquareExtent(layer.BBox())}
		want := prepared.NaiveClipRect(layer, spec.Extent, engine.EvenOdd).Area()
		out = append(out, tilesInputs{layer: layer, spec: spec, want: want})
	}
	return out
}

// tilesRun is one layer's inputs with its checker and a cache already
// holding its canonical form.
type tilesRun struct {
	in   tilesInputs
	k    *tilesChecker
	warm *acache.Cache
}

// tilesChecker verifies a cut: at every zoom the tiles partition the
// layer, so their areas sum to |layer ∩ extent|, and the cut's digest
// equals the first iteration's.
type tilesChecker struct {
	in    tilesInputs
	first uint64
	seen  bool
}

func (k *tilesChecker) check(tiles []tile.Tile) bool {
	sums := make([]float64, k.in.spec.MaxZoom+1)
	h, put := digest()
	for _, t := range tiles {
		sums[t.Z] += t.Poly.Area()
		put(uint64(t.Z)<<48 | uint64(uint32(t.X))<<24 | uint64(uint32(t.Y)))
		putPolygon(put, t.Poly)
	}
	for z := k.in.spec.MinZoom; z <= k.in.spec.MaxZoom; z++ {
		if math.Abs(sums[z]-k.in.want) > tilesAreaTol*k.in.want {
			return false
		}
	}
	d := h.Sum64()
	if !k.seen {
		k.first, k.seen = d, true
	}
	return d == k.first
}

// tilesCut runs one cut, inside a span when tr is non-nil, and checks it.
func tilesCut(ctx context.Context, cfg config, r tilesRun, c *acache.Cache, rep *report, tr *Tracer, op int64) (tile.Stats, time.Duration) {
	t0 := time.Now()
	id := tr.Begin(op, -1, "tile.cut")
	tiles, st, err := tile.Cut(ctx, r.in.layer, r.in.spec, tile.Options{Threads: cfg.threads, Cache: c})
	tr.End(id)
	d := time.Since(t0)
	rep.tally.Attempted++
	switch {
	case err != nil:
		rep.tally.Failed++
	case !r.k.check(tiles):
		rep.tally.Wrong++
	}
	return st, d
}

// warmCache returns a cache holding the layer's canonical form.
func warmCache(in tilesInputs) *acache.Cache {
	c := acache.New(64 << 20)
	c.Prepared(geom.Hash(in.layer), engine.EvenOdd, func() geom.Polygon {
		return prepared.Canonicalize(in.layer, engine.EvenOdd)
	})
	return c
}

func runTiles(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	ins, _ := timedSetup(rep, func() ([]tilesInputs, error) { return tilesSetup(cfg.seed), nil })
	var runs []tilesRun
	for _, in := range ins {
		r := tilesRun{in: in, k: &tilesChecker{in: in}, warm: warmCache(in)}
		// Untimed cuts finish lazy set-up before timing.
		tilesCut(ctx, cfg, r, nil, rep, nil, 0)
		tilesCut(ctx, cfg, r, r.warm, rep, nil, 0)
		runs = append(runs, r)
	}
	if cfg.trace {
		return rep, tilesLayers(ctx, cfg, runs, rep)
	}

	var cold, hot timings
	var coldSecs float64
	var tiles int64
	sp := newSpeedometer(cfg.threads)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		r := runs[i%len(runs)]
		_, d := tilesCut(ctx, cfg, r, nil, rep, nil, 0)
		cold.add(d)
		coldSecs += d.Seconds()
		tiles += r.in.spec.NumTiles()
		_, d = tilesCut(ctx, cfg, r, r.warm, rep, nil, 0)
		hot.add(d)
		sp.tick()
	}
	scale := sp.scale()
	setClass(rep, "class1", "tiles_cold", cold, scale)
	setClass(rep, "class2", "tiles_warm", hot, scale)
	rep.e2e["throughput_per_s"] = float64(tiles) / coldSecs / scale
	fmt.Fprintf(os.Stderr, "raw tiles_per_s=%.1f\n", float64(tiles)/coldSecs)
	return rep, nil
}

// tilesLayers is the traced run: iterations in untraced/traced pairs, each
// running the cut decomposed into its public layer calls — canonicalize,
// prepare, the cache's prepare tier, then the cut itself reading the
// canonical form from that cache — plus two probes over the max-zoom grid:
// ClassifyRect on every box and ClipRect on the straddling ones.
func tilesLayers(ctx context.Context, cfg config, runs []tilesRun, rep *report) error {
	const z = tilesMaxZoom
	side := int32(1) << uint(z)
	// Per-cut counts and probe totals, over the traced iterations.
	sum := map[string]float64{}
	var classifyMs, clipRectMs, straddles float64
	n := 0
	tr, coverage, overhead := tracedPairs(time.Now().Add(time.Duration(cfg.seconds*float64(time.Second))), func(i int, tr *Tracer) {
		r := runs[i%len(runs)]
		in := r.in
		op := tr.Op()
		var canon geom.Polygon
		tr.Do(op, -1, "prepared.canonicalize", func() { canon = prepared.Canonicalize(in.layer, engine.EvenOdd) })
		var pp *prepared.Prepared
		tr.Do(op, -1, "prepared.prepare", func() { pp = prepared.FromCanonical(canon, engine.EvenOdd) })
		var c *acache.Cache
		tr.Do(op, -1, "acache.prepared", func() {
			c = acache.New(64 << 20)
			c.Prepared(geom.Hash(in.layer), engine.EvenOdd, func() geom.Polygon { return canon })
		})
		st, _ := tilesCut(ctx, cfg, r, c, rep, tr, op)
		var straddling []geom.BBox
		t0 := time.Now()
		tr.Do(op, -1, "prepared.classify", func() {
			for x := int32(0); x < side; x++ {
				for y := int32(0); y < side; y++ {
					if b := in.spec.Box(z, x, y); pp.ClassifyRect(b) == prepared.Straddle {
						straddling = append(straddling, b)
					}
				}
			}
		})
		t1 := time.Now()
		tr.Do(op, -1, "prepared.cliprect", func() {
			for _, b := range straddling {
				pp.ClipRect(b)
			}
		})
		if tr == nil {
			return
		}
		n++
		classifyMs += ms(t1.Sub(t0))
		clipRectMs += ms(time.Since(t1))
		straddles += float64(len(straddling))
		total := float64(in.spec.NumTiles())
		sum["tile.nodes"] += float64(st.Nodes)
		sum["tile.leaves"] += float64(st.Leaves)
		sum["tile.pruned"] += float64(st.Pruned)
		sum["tile.filled"] += float64(st.Filled)
		sum["prepared.fast_inside"] += float64(st.Prepared.FastInside)
		sum["prepared.fast_outside"] += float64(st.Prepared.FastOutside)
		sum["prepared.band_clips"] += float64(st.Prepared.BandClips)
		sum["prepared.convex_clips"] += float64(st.Prepared.ConvexClips)
		sum["prepared.rescues"] += float64(st.Prepared.Rescues)
		sum["prepared.no_sweep_frac"] += (total - float64(st.Prepared.Sweeps())) / total
	})
	for k, v := range sum {
		rep.layer[k] = v / float64(n)
	}
	rep.layer["trace.coverage_pct"] = coverage
	rep.layer["trace.overhead_pct"] = overhead
	rep.layer["prepared.canonicalize_ms"] = tr.MeanMs("prepared.canonicalize")
	rep.layer["prepared.prepare_ms"] = tr.MeanMs("prepared.prepare")
	rep.layer["tile.cut_ms"] = tr.MeanMs("tile.cut")
	rep.layer["prepared.classify_us"] = 1000 * classifyMs / float64(n*int(side)*int(side))
	if straddles > 0 {
		rep.layer["prepared.cliprect_us"] = 1000 * clipRectMs / straddles
	}
	return writeSpans(cfg, "tiles", tr)
}
