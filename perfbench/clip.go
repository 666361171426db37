package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"polyclip"
	"polyclip/internal/arrange"
	"polyclip/internal/data"
	"polyclip/internal/engine"
	"polyclip/internal/geom"
	"polyclip/internal/guard"
	"polyclip/internal/isect"
	"polyclip/internal/pool"
)

// The clip workload: one caller in a closed loop running the root
// polyclip.ClipCtx with default Options (the overlay engine on every CPU),
// alternating two input classes that load the arrangement layer in
// opposite ways:
//
//   - simple: data.SyntheticPair(seed, 8000, 8000) intersected — the
//     paper's Fig. 8 size, where the arrangement pre-scan finds nothing
//     to resolve;
//   - selfx: data.SelfIntersectingPair(seed, 801) cycling ∩ ∪ − ⊕, with
//     about 1.6k crossings that arrange.ResolvePair must split.
const (
	clipSimpleEdges = 8000
	clipSelfxEdges  = 801
	// clipAreaTol is the relative tolerance, over the operands' measure,
	// between an output area and the vatti reference.
	clipAreaTol = 1e-6
)

// clipCase is one input of the clip workload with its reference area.
type clipCase struct {
	class      string // "simple" or "selfx"
	a, b       geom.Polygon
	op         engine.Op
	ref, scale float64
}

// clipInputs generates the workload's cases and their reference areas from
// the vatti engine (the sequential sweep) through the same hardened entry
// point.
func clipInputs(ctx context.Context, seed int64) ([]clipCase, error) {
	sa, sb := data.SyntheticPair(seed, clipSimpleEdges, clipSimpleEdges)
	xa, xb := data.SelfIntersectingPair(seed, clipSelfxEdges)
	cases := []clipCase{{class: "simple", a: sa, b: sb, op: polyclip.Intersection}}
	for _, op := range engine.Ops() {
		cases = append(cases, clipCase{class: "selfx", a: xa, b: xb, op: op})
	}
	for i := range cases {
		c := &cases[i]
		out, _, err := polyclip.ClipCtx(ctx, c.a, c.b, c.op, polyclip.Options{Algorithm: polyclip.AlgoSequential, NoFallback: true})
		if err != nil {
			return nil, fmt.Errorf("vatti reference %s %v: %w", c.class, c.op, err)
		}
		c.ref = out.Area()
		c.scale = guard.MeasureBound(c.a) + guard.MeasureBound(c.b)
	}
	return cases, nil
}

// clipSchedule is the closed loop's order: simple and selfx alternate, the
// selfx ops cycling, so both classes get the same share of samples.
func clipSchedule(cases []clipCase, i int) clipCase {
	if i%2 == 0 {
		return cases[0]
	}
	return cases[1+(i/2)%(len(cases)-1)]
}

// checkArea reports whether an output's area matches the reference.
func (c clipCase) checkArea(out geom.Polygon) bool {
	return math.Abs(out.Area()-c.ref) <= clipAreaTol*c.scale
}

func runClip(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	cases, err := timedSetup(rep, func() ([]clipCase, error) { return clipInputs(ctx, cfg.seed) })
	if err != nil {
		return nil, err
	}
	// One untimed clip per case finishes lazy set-up (the worker pool,
	// pooled scratch) before anything is timed.
	for _, c := range cases {
		if _, _, err := polyclip.ClipCtx(ctx, c.a, c.b, c.op, polyclip.Options{}); err != nil {
			return nil, err
		}
	}
	if cfg.trace {
		return rep, clipLayers(ctx, cfg, cases, rep)
	}

	byClass := map[string]*timings{"simple": {}, "selfx": {}}
	sp := newSpeedometer(cfg.threads)
	var busy time.Duration
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		c := clipSchedule(cases, i)
		t0 := time.Now()
		out, _, err := polyclip.ClipCtx(ctx, c.a, c.b, c.op, polyclip.Options{})
		d := time.Since(t0)
		byClass[c.class].add(d)
		busy += d
		sp.tick()
		rep.tally.Attempted++
		switch {
		case err != nil:
			rep.tally.Failed++
		case !c.checkArea(out):
			rep.tally.Wrong++
		}
	}
	scale := sp.scale()
	setClass(rep, "class1", "clip_simple", *byClass["simple"], scale)
	setClass(rep, "class2", "clip_selfx", *byClass["selfx"], scale)
	rep.e2e["throughput_per_s"] = float64(rep.tally.Attempted) / busy.Seconds() / scale
	return rep, nil
}

// clipLayers is the traced run. The first half of the time runs ClipCtx
// untraced, reading allocation, pool and resilience counters around every
// call. The second half runs the pipeline decomposed into its layer calls,
// each operation once untraced and once with a span around every layer
// call, so the spans give the layer times and the pairs the tracing
// overhead.
func clipLayers(ctx context.Context, cfg config, cases []clipCase, rep *report) error {
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))

	type counts struct {
		ops, allocs, bytes int
	}
	per := map[string]*counts{"simple": {}, "selfx": {}}
	attempts, fallbacks, ops := 0, 0, 0
	poolBefore := pool.Default().Stats()
	deadline := time.Now().Add(half)
	var ms0, ms1 runtime.MemStats
	for i := 0; time.Now().Before(deadline); i++ {
		c := clipSchedule(cases, i)
		runtime.ReadMemStats(&ms0)
		out, st, err := polyclip.ClipCtx(ctx, c.a, c.b, c.op, polyclip.Options{})
		runtime.ReadMemStats(&ms1)
		k := per[c.class]
		k.ops++
		k.allocs += int(ms1.Mallocs - ms0.Mallocs)
		k.bytes += int(ms1.TotalAlloc - ms0.TotalAlloc)
		ops++
		attempts += len(st.Resilience.Attempts)
		if n := len(st.Resilience.Attempts) - 1; n > 0 {
			fallbacks += n
		}
		rep.tally.Attempted++
		if err != nil {
			rep.tally.Failed++
		} else if !c.checkArea(out) {
			rep.tally.Wrong++
		}
	}
	poolAfter := pool.Default().Stats()
	for class, k := range per {
		if k.ops > 0 {
			rep.layer["clip.alloc_mb_per_op."+class] = float64(k.bytes) / float64(k.ops) / (1 << 20)
			rep.layer["clip.allocs_per_op."+class] = float64(k.allocs) / float64(k.ops)
		}
	}
	rep.layer["resilience.attempts_per_op"] = float64(attempts) / float64(ops)
	rep.layer["resilience.fallback_steps"] = float64(fallbacks)
	if ex := poolAfter.Executed - poolBefore.Executed; ex > 0 {
		rep.layer["pool.steal_ratio"] = float64(poolAfter.Stolen-poolBefore.Stolen) / float64(ex)
	}
	rep.layer["pool.tasks_per_op"] = float64(poolAfter.Submitted-poolBefore.Submitted) / float64(ops)

	tr, coverage, overhead := tracedPairs(time.Now().Add(half), func(i int, tr *Tracer) {
		clipDecomposed(ctx, cfg, clipSchedule(cases, i), tr, rep)
	})
	rep.layer["trace.coverage_pct"] = coverage
	rep.layer["trace.overhead_pct"] = overhead
	rep.layer["guard.validate_repair_ms"] = tr.MeanMs("guard.validate_repair")
	rep.layer["guard.audit_ms"] = tr.MeanMs("guard.audit")
	for _, class := range []string{"simple", "selfx"} {
		arr := tr.MeanMs("arrange.resolve." + class)
		is := tr.MeanMs("isect.pairs." + class)
		ov := tr.MeanMs("overlay.clip." + class)
		rep.layer["arrange.resolve_ms."+class] = arr
		rep.layer["overlay.clip_ms."+class] = ov
		rep.layer["overlay.rest_ms."+class] = ov - arr - is
	}
	rep.layer["isect.pairs_ms.simple"] = tr.MeanMs("isect.pairs.simple")
	candidates, pairs, crossings := clipCounts(cases, cfg.threads)
	rep.layer["arrange.crossings.selfx"] = float64(crossings)
	rep.layer["isect.candidate_pairs.simple"] = float64(candidates)
	if candidates > 0 {
		rep.layer["isect.pair_yield"] = float64(pairs) / float64(candidates)
	}
	return writeSpans(cfg, "clip", tr)
}

// clipDecomposed runs the hardened pipeline's first attempt as separate
// layer calls — validate/repair, the overlay engine, the audit — plus two
// probes on the same operands: the arrangement resolve the engine runs
// first, and the grid pair finder over the resolved edges.
func clipDecomposed(ctx context.Context, cfg config, c clipCase, tr *Tracer, rep *report) {
	op := tr.Op()
	var a, b geom.Polygon
	var areaA, areaB float64
	var verr error
	tr.Do(op, -1, "guard.validate_repair", func() {
		if verr = guard.Validate(c.a); verr == nil {
			verr = guard.Validate(c.b)
		}
		a, _ = guard.Repair(c.a)
		b, _ = guard.Repair(c.b)
		areaA, areaB = guard.MeasureBound(a), guard.MeasureBound(b)
	})
	var ra, rb geom.Polygon
	tr.Do(op, -1, "arrange.resolve."+c.class, func() { ra, rb = arrange.ResolvePair(a, b) })
	tr.Do(op, -1, "isect.pairs."+c.class, func() {
		isect.GridPairs(append(ra.Edges(), rb.Edges()...), cfg.threads)
	})
	var res engine.Result
	var err error
	tr.Do(op, -1, "overlay.clip."+c.class, func() {
		res, err = engine.MustGet("overlay").Clip(ctx, a, b, c.op, engine.Options{Threads: cfg.threads})
	})
	var aerr error
	tr.Do(op, -1, "guard.audit", func() { aerr = guard.Audit(res.Polygon, areaA, areaB, guard.OpKind(c.op)) })

	rep.tally.Attempted++
	switch {
	case verr != nil || err != nil:
		rep.tally.Failed++
	case aerr != nil || !c.checkArea(res.Polygon):
		rep.tally.Wrong++
	}
}

// clipCounts takes the workload's deterministic counts once, outside any
// timing: the grid finder's candidates and verified pairs on the simple
// class's resolved edges, and the proper crossings of the selfx operands.
func clipCounts(cases []clipCase, threads int) (candidates, pairs, crossings int) {
	repaired := func(c clipCase) (geom.Polygon, geom.Polygon) {
		a, _ := guard.Repair(c.a)
		b, _ := guard.Repair(c.b)
		return a, b
	}
	ra, rb := arrange.ResolvePair(repaired(cases[0]))
	edges := append(ra.Edges(), rb.Edges()...)
	isect.VisitCandidatePairs(edges, func(int32, int32) bool { candidates++; return true })
	pairs = len(isect.GridPairs(edges, threads))
	xa, xb := repaired(cases[1])
	crossings = int(isect.CountCrossings(append(xa.Edges(), xb.Edges()...), threads))
	return candidates, pairs, crossings
}

// writeSpans writes the span log of a traced run under the output
// directory.
func writeSpans(cfg config, name string, tr *Tracer) error {
	path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", cfg.outDir, name, cfg.seed)
	if err := tr.WriteJSONL(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "spans: %s (%d)\n", path, len(tr.Spans()))
	return nil
}
