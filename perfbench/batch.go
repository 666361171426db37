package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"time"

	"polyclip"
	"polyclip/internal/acache"
	"polyclip/internal/batch"
	"polyclip/internal/data"
	"polyclip/internal/geojson"
	"polyclip/internal/geom"
	"polyclip/internal/pool"
	"polyclip/internal/rtree"
)

// The batch workload: two GeoJSON streams of data.Features (mixed
// distribution, half the features exact repeats) decoded by
// batch.ReadFeatures and intersected by batch.Overlay. A run cycles
// through batchPairs stream pairs made from the seed, so one unusually
// cheap or costly pair moves its figures less. Each iteration runs
// a cold pass on a fresh cache, then a warm pass over the same streams on
// the now-filled cache, so decode, hashing, the R-tree join and bucket
// fan-out carry the time, with cache writes (cold) against cache reads
// (warm); the per-pair clips are tiny.
const (
	batchFeatures   = 1200
	batchPairs      = 4
	batchRepeatFrac = 0.5
	batchCacheBytes = 256 << 20
)

// batchInputs is one pair of encoded layers with the checker of its
// outputs.
type batchInputs struct {
	a, b []byte
	n    int // features in both layers together
	k    *batchChecker
}

func batchSetup(seed int64) ([]batchInputs, error) {
	var ins []batchInputs
	for p := int64(0); p < batchPairs; p++ {
		in := batchInputs{k: &batchChecker{}}
		for i, dst := range []*[]byte{&in.a, &in.b} {
			fs := data.Features(data.FeatureOptions{
				N: batchFeatures, Dist: "mixed", RepeatFrac: batchRepeatFrac, Seed: (seed*batchPairs+p)*2 + int64(i),
			})
			enc, err := geojson.MarshalLayer(fs)
			if err != nil {
				return nil, fmt.Errorf("encode layer %d: %w", i, err)
			}
			*dst = enc
			in.n += len(fs)
		}
		ins = append(ins, in)
	}
	return ins, nil
}

// batchPass decodes both streams and overlays them on cache c. The
// decode and overlay calls run inside spans when tr is non-nil.
func batchPass(ctx context.Context, cfg config, in batchInputs, c *acache.Cache, tr *Tracer, op int64, label string) (a, b []geom.Polygon, out []batch.Output, st *batch.Stats, err error) {
	tr.Do(op, -1, "batch.decode", func() {
		if a, err = batch.ReadFeatures(bytes.NewReader(in.a)); err == nil {
			b, err = batch.ReadFeatures(bytes.NewReader(in.b))
		}
	})
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("decode: %w", err)
	}
	tr.Do(op, -1, "batch.overlay."+label, func() {
		out, st, err = batch.Overlay(ctx, a, b, polyclip.Intersection, batch.Options{Threads: cfg.threads, Cache: c})
	})
	return a, b, out, st, err
}

// outputsDigest hashes every output's pair indices and coordinate bits, so
// equal digests mean bit-identical outputs.
func outputsDigest(out []batch.Output) uint64 {
	h, put := digest()
	for _, o := range out {
		put(uint64(o.A)<<32 | uint64(uint32(o.B)))
		putPolygon(put, o.Poly)
	}
	return h.Sum64()
}

// digest returns an FNV-1a hash and a function that feeds it one 64-bit
// word, little-endian.
func digest() (hash.Hash64, func(uint64)) {
	h := fnv.New64a()
	var buf [8]byte
	return h, func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
}

// putPolygon feeds a polygon's ring lengths and coordinate bits to put.
func putPolygon(put func(uint64), p geom.Polygon) {
	put(uint64(len(p)))
	for _, r := range p {
		put(uint64(len(r)))
		for _, pt := range r {
			put(math.Float64bits(pt.X))
			put(math.Float64bits(pt.Y))
		}
	}
}

// batchChecker verifies each iteration: the warm output must be
// bit-identical to the cold one, and every iteration to the first.
type batchChecker struct {
	first uint64
	seen  bool
}

func (k *batchChecker) check(cold, warm []batch.Output) bool {
	dc, dw := outputsDigest(cold), outputsDigest(warm)
	if !k.seen {
		k.first, k.seen = dc, true
	}
	return dc == dw && dc == k.first && len(cold) > 0
}

func runBatch(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	ins, err := timedSetup(rep, func() ([]batchInputs, error) { return batchSetup(cfg.seed) })
	if err != nil {
		return nil, err
	}
	// One untimed cold and warm pass per pair finishes lazy set-up before
	// timing.
	for _, in := range ins {
		warmup := acache.New(batchCacheBytes)
		for i := 0; i < 2; i++ {
			if _, _, _, _, err := batchPass(ctx, cfg, in, warmup, nil, 0, ""); err != nil {
				return nil, err
			}
		}
	}
	if cfg.trace {
		return rep, batchLayers(ctx, cfg, ins, rep)
	}

	var cold, warm timings
	var coldSecs, warmSecs float64
	features := 0
	sp := newSpeedometer(cfg.threads)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		in := ins[i%len(ins)]
		c := acache.New(batchCacheBytes)
		t0 := time.Now()
		_, _, outC, _, errC := batchPass(ctx, cfg, in, c, nil, 0, "")
		t1 := time.Now()
		_, _, outW, _, errW := batchPass(ctx, cfg, in, c, nil, 0, "")
		t2 := time.Now()
		cold.add(t1.Sub(t0))
		warm.add(t2.Sub(t1))
		coldSecs += t1.Sub(t0).Seconds()
		warmSecs += t2.Sub(t1).Seconds()
		features += in.n
		batchTally(rep, in.k, outC, outW, errC, errW)
		sp.tick()
	}
	scale := sp.scale()
	setClass(rep, "class1", "batch_cold", cold, scale)
	setClass(rep, "class2", "batch_warm", warm, scale)
	rep.e2e["throughput_per_s"] = float64(features) / coldSecs / scale
	fmt.Fprintf(os.Stderr, "raw batch_cold_features_per_s=%.1f batch_warm_features_per_s=%.1f\n",
		float64(features)/coldSecs, float64(features)/warmSecs)
	return rep, nil
}

// batchTally counts one cold+warm iteration as two attempted passes.
func batchTally(rep *report, k *batchChecker, outC, outW []batch.Output, errC, errW error) {
	rep.tally.Attempted += 2
	for _, err := range []error{errC, errW} {
		if err != nil {
			rep.tally.Failed++
		}
	}
	if errC == nil && errW == nil && !k.check(outC, outW) {
		rep.tally.Wrong++
	}
}

// batchLayers is the traced run: iterations run in untraced/traced pairs,
// the traced one with spans around the cache, pool, decode and overlay
// calls plus an R-tree join probe over the decoded layers' boxes. Layer
// times inside batch.Overlay come from its Stats.
func batchLayers(ctx context.Context, cfg config, ins []batchInputs, rep *report) error {
	// Per-iteration figures, averaged over the traced iterations below.
	sum := map[string]float64{}
	n := 0
	tr, coverage, overhead := tracedPairs(time.Now().Add(time.Duration(cfg.seconds*float64(time.Second))), func(i int, tr *Tracer) {
		in := ins[i%len(ins)]
		op := tr.Op()
		var c *acache.Cache
		tr.Do(op, -1, "acache.new", func() { c = acache.New(batchCacheBytes) })
		var before, after pool.Stats
		tr.Do(op, -1, "pool.stats", func() { before = pool.Default().Stats() })
		_, _, outC, stC, errC := batchPass(ctx, cfg, in, c, tr, op, "cold")
		a, b, outW, stW, errW := batchPass(ctx, cfg, in, c, tr, op, "warm")
		tr.Do(op, -1, "rtree.join", func() { rtreeJoin(a, b) })
		tr.Do(op, -1, "pool.stats", func() { after = pool.Default().Stats() })
		var cs acache.Stats
		tr.Do(op, -1, "acache.stats", func() { cs = c.Stats() })
		batchTally(rep, in.k, outC, outW, errC, errW)
		if tr == nil || errC != nil || errW != nil {
			return
		}
		n++
		sum["batch.hash_ms"] += ms(stC.Hash)
		sum["batch.index_ms"] += ms(stC.Index)
		sum["batch.clip_ms"] += ms(stC.Clip)
		sum["batch.candidate_pairs"] += float64(stC.CandidatePairs)
		sum["batch.output_yield"] += float64(stC.Outputs) / float64(stC.CandidatePairs)
		sum["acache.hit_rate.cold"] += stC.Cache.HitRate()
		sum["acache.hit_rate.warm"] += stW.Cache.HitRate()
		sum["acache.bytes"] += float64(cs.Bytes)
		sum["acache.evictions"] += float64(cs.Evictions)
		sum["acache.waits"] += float64(cs.Waits)
		if ex := after.Executed - before.Executed; ex > 0 {
			sum["pool.steal_ratio"] += float64(after.Stolen-before.Stolen) / float64(ex)
		}
		sum["pool.tasks_per_op"] += float64(after.Submitted - before.Submitted)
		rep.layer["batch.rescued"] += float64(stC.Rescued + stW.Rescued)
	})
	for k, v := range sum {
		rep.layer[k] = v / float64(n)
	}
	rep.layer["trace.coverage_pct"] = coverage
	rep.layer["trace.overhead_pct"] = overhead
	rep.layer["batch.decode_ms"] = tr.MeanMs("batch.decode")
	rep.layer["batch.overlay_ms.cold"] = tr.MeanMs("batch.overlay.cold")
	rep.layer["batch.overlay_ms.warm"] = tr.MeanMs("batch.overlay.warm")
	rep.layer["rtree.join_ms"] = tr.MeanMs("rtree.join")
	return writeSpans(cfg, "batch", tr)
}

// rtreeJoin is the R-tree probe: bulk-load layer B's feature boxes and
// join layer A's against them, as the batch overlay's spatial join does,
// returning the candidate pair count.
func rtreeJoin(a, b []geom.Polygon) int {
	ba, bb := bboxes(a), bboxes(b)
	boxA := func(i int32) geom.BBox { return ba[i] }
	boxB := func(j int32) geom.BBox { return bb[j] }
	t := rtree.Build(len(b), boxB)
	n := 0
	t.JoinVisit(len(a), boxA, boxB, func(int32, int32) { n++ })
	return n
}

func bboxes(ps []geom.Polygon) []geom.BBox {
	out := make([]geom.BBox, len(ps))
	for i, p := range ps {
		out[i] = p.BBox()
	}
	return out
}
