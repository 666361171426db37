// Command perfbench is the repository's end-to-end benchmark: four
// workloads (clip, batch, tiles, serve) driven from one process against
// the library's public entry points, with every output checked. An
// untraced run (-trace 0) prints the end-to-end metrics; a traced run
// (-trace 1) records spans around the calls into each layer and prints the
// per-layer metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// it from the checkout's sources:
//
//	bash perfbench/run.sh --workload clip --seed 1 --seconds 12 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"polyclip/perfbench/stat"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	threads int
	outDir  string // where the span log is written
}

// report is what a workload run produces. e2e holds the end-to-end metrics
// of an untraced run, layer the per-layer metrics of a traced run.
type report struct {
	tally stat.Tally
	e2e   map[string]float64
	layer map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// workloads maps a workload name to its run function.
var workloads = map[string]func(ctx context.Context, cfg config) (*report, error){
	"clip":  runClip,
	"batch": runBatch,
	"tiles": runTiles,
	"serve": runServe,
}

// setupRuns is how many times each workload builds its inputs; setup_s is
// the median, so one slow set-up does not move it.
const setupRuns = 5

// setupKernels is how many times the calibration kernel runs after each
// set-up.
const setupKernels = 3

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: clip, batch, tiles or serve")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
		out     = flag.String("out", ".bench_build/perfbench", "directory for the span log")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, threads: runtime.NumCPU(), outDir: *out}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	host := hostFingerprint(cfg.seed)
	hb, _ := json.Marshal(host)
	fmt.Fprintf(os.Stderr, "host %s\n", hb)

	rep, err := fn(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep.layer["peak_rss_mb"] = peakRSSMB()
	fmt.Fprintf(os.Stderr, "peak_rss_mb=%.3f\n", rep.layer["peak_rss_mb"])
	rep.layer["error_rate"] = rep.tally.ErrorRate()

	defs, values := endToEnd, rep.e2e
	if cfg.trace {
		defs, values = perLayer, rep.layer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, d.name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s measured %s = %v\n", *name, d.name, v)
			return 1
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	printTable(os.Stderr, *name, defs, values)
	res := map[string]any{
		"correct":   rep.tally.Wrong == 0,
		"attempted": rep.tally.Attempted,
		"failed":    rep.tally.Bad(),
		"metrics":   metrics,
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// metricDef names one printed metric; the lists match BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run prints. Each workload
// measures two input classes; class1 and class2 name them (see
// meta.json for what they are on each workload). Times and rates are at
// reference speed (see calib.go). Latency tails and peak RSS go to stderr
// (peak RSS is also a per-layer metric): on a shared host their
// run-to-run spread is wider than any bound a regression check could use.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"class1_ms_p50", "ms"},
	{"class2_ms_p50", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer are the metrics every traced run prints; a layer the workload
// does not call reads 0.
var perLayer = []metricDef{
	{"trace.coverage_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"error_rate", "ratio"},
	{"peak_rss_mb", "MB"},
	// clip
	{"guard.validate_repair_ms", "ms"},
	{"guard.audit_ms", "ms"},
	{"arrange.resolve_ms.simple", "ms"},
	{"arrange.resolve_ms.selfx", "ms"},
	{"arrange.crossings.selfx", "count"},
	{"isect.pairs_ms.simple", "ms"},
	{"isect.candidate_pairs.simple", "count"},
	{"isect.pair_yield", "ratio"},
	{"overlay.clip_ms.simple", "ms"},
	{"overlay.clip_ms.selfx", "ms"},
	{"overlay.rest_ms.simple", "ms"},
	{"overlay.rest_ms.selfx", "ms"},
	{"clip.alloc_mb_per_op.simple", "MB"},
	{"clip.alloc_mb_per_op.selfx", "MB"},
	{"clip.allocs_per_op.simple", "count"},
	{"clip.allocs_per_op.selfx", "count"},
	{"resilience.attempts_per_op", "count"},
	{"resilience.fallback_steps", "count"},
	{"pool.steal_ratio", "ratio"},
	{"pool.tasks_per_op", "count"},
	// batch
	{"batch.decode_ms", "ms"},
	{"batch.hash_ms", "ms"},
	{"batch.index_ms", "ms"},
	{"batch.clip_ms", "ms"},
	{"batch.overlay_ms.cold", "ms"},
	{"batch.overlay_ms.warm", "ms"},
	{"batch.candidate_pairs", "count"},
	{"batch.output_yield", "ratio"},
	{"batch.rescued", "count"},
	{"rtree.join_ms", "ms"},
	{"acache.hit_rate.cold", "ratio"},
	{"acache.hit_rate.warm", "ratio"},
	{"acache.bytes", "bytes"},
	{"acache.evictions", "count"},
	{"acache.waits", "count"},
	// tiles
	{"tile.cut_ms", "ms"},
	{"prepared.canonicalize_ms", "ms"},
	{"prepared.prepare_ms", "ms"},
	{"prepared.classify_us", "us"},
	{"prepared.cliprect_us", "us"},
	{"tile.nodes", "count"},
	{"tile.leaves", "count"},
	{"tile.pruned", "count"},
	{"tile.filled", "count"},
	{"prepared.fast_inside", "count"},
	{"prepared.fast_outside", "count"},
	{"prepared.band_clips", "count"},
	{"prepared.convex_clips", "count"},
	{"prepared.rescues", "count"},
	{"prepared.no_sweep_frac", "ratio"},
	// serve
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.service_ms_p50", "ms"},
	{"serve.batch_size_mean", "count"},
	{"serve.shed", "count"},
	{"serve.degraded_served", "count"},
	{"serve.cache_hit_rate", "ratio"},
	{"serve.gen_late_ms_p99", "ms"},
}

// printTable writes the metrics a run measured, one per line, to w.
func printTable(w *os.File, name string, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			fmt.Fprintf(w, "%s %-30s %14.6g %s\n", name, d.name, v, d.unit)
		}
	}
}

// timings collects per-operation durations in milliseconds.
type timings []float64

func (t *timings) add(d time.Duration) { *t = append(*t, ms(d)) }

// p50 returns the median.
func (t timings) p50() float64 { return stat.Percentile(stat.Sorted(t), 50) }

// tail returns the timing at the highest percentile the sample supports
// and that percentile; with fewer than 20 samples the median stands in.
func (t timings) tail() (float64, float64) {
	p, ok := stat.TailPercentile(len(t))
	if !ok {
		p = 50
	}
	return stat.Percentile(stat.Sorted(t), p), p
}

// setClass stores one class's median time, scaled by scale to reference
// speed (see calib.go), under the generic name. It logs the raw median and
// tail under the class's own name.
func setClass(rep *report, class, label string, t timings, scale float64) {
	tail, p := t.tail()
	v := t.p50() * scale
	rep.e2e[class+"_ms_p50"] = v
	fmt.Fprintf(os.Stderr, "%s = %s: n=%d raw %s_ms_p50=%.3f %s_ms_p%g=%.3f; at reference speed %.3f\n",
		class, label, len(t), label, t.p50(), label, p, tail, v)
}

// timedSetup runs build setupRuns times, records the median wall time at
// reference speed as setup_s and returns the last result. The calibration
// kernel runs setupKernels times after each build, outside its timing, on
// one goroutine as the builds mostly do, so the scale comes from the same
// minutes as the set-up; its collection keeps one build's garbage out of
// the next build and out of the measurement that follows.
func timedSetup[T any](rep *report, build func() (T, error)) (T, error) {
	var out T
	var secs []float64
	sp := &speedometer{threads: 1}
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return out, err
		}
		secs = append(secs, time.Since(start).Seconds())
		out = v
		for k := 0; k < setupKernels; k++ {
			sp.measure()
		}
	}
	raw := stat.Median(secs)
	rep.e2e["setup_s"] = raw * sp.scale()
	fmt.Fprintf(os.Stderr, "raw setup_s=%.4f; set-up speed scale %.4f\n", raw, sp.scale())
	return out, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// host is the fingerprint printed with every run: results are comparable
// only between runs with equal fingerprints.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func hostFingerprint(seed int64) host {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", Go: runtime.Version(), Commit: commit(), Seed: seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// commit reads the checked-out commit from .git when there is one; the
// benchmark may run from an export without history.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == name {
				return f[0]
			}
		}
	}
	return "unknown"
}
