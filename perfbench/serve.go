package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"polyclip"
	"polyclip/internal/data"
	"polyclip/internal/serve"
	"polyclip/internal/tile"

	"polyclip/perfbench/stat"
)

// The serve workload: clipd's serve.NewServer(...).Handler() on a loopback
// listener, driven by one open-loop generator on at most nproc
// connections. The mix is nine /clip requests (circle pairs, as clipload
// sends) to one /tile request over a small pool of repeating layers, so
// the shared cache's prepare tier hits. Latency is timed from each
// request's due time. A long reference step at a rate below the knee gives
// the latency percentiles. Short steps at rising rates apply the ladder
// rule (the highest rate that meets the p99 limit without a growing
// backlog), and the last step, offered far above the knee, keeps every
// connection busy and gives the server's capacity (see overload).
const (
	serveClipBodies = 256
	serveTileLayers = 16
	serveTileEvery  = 10 // every tenth request is a /tile request
	serveRefRate    = 100
	serveLimitMs    = 100 // p99 latency limit of the ladder
	serveAreaTol    = 1e-9
)

// serveStep is one ladder step: an offered rate and its share of the run.
type serveStep struct {
	rate, share float64
}

// serveLadder holds the ladder's steps, ascending by rate; the reference
// step runs longest and gives the latency percentiles. On a 2-CPU host the
// knee moves between about 300 and 550 req/s with the host's load (two
// connections' round trips, not the server's CPU, bound the rate), so the
// steps sit clear of that range on both sides and a step's verdict does
// not flip from run to run. The last step is the overload step, offered
// about four times the knee so that a server several times faster still
// saturates it; it sends twice as many requests as the 200 req/s step.
var serveLadder = []serveStep{{50, 0.1}, {serveRefRate, 0.6}, {200, 0.2}, {2000, 0.08}}

// serveReq is one prepared request body with its reference result area.
type serveReq struct {
	path string
	body []byte
	want float64
}

// serveInputs is the workload's request pool.
type serveInputs struct {
	clips, tiles []serveReq
}

// circleWKT renders an n-vertex circle as WKT.
func circleWKT(cx, cy, r float64, n int) string {
	var b strings.Builder
	b.WriteString("POLYGON ((")
	for i := 0; i <= n; i++ {
		a := 2 * math.Pi * float64(i%n) / float64(n)
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.6f %.6f", cx+r*math.Cos(a), cy+r*math.Sin(a))
	}
	b.WriteString("))")
	return b.String()
}

// serveSetup builds the request pool and every request's reference area
// from the library directly: ClipCtx for a clip, the summed tile areas of
// a local tile.Cut for a tile request.
func serveSetup(ctx context.Context, seed int64) (serveInputs, error) {
	var in serveInputs
	rng := rand.New(rand.NewSource(seed))
	ops := []string{"intersection", "union", "difference", "xor"}
	for i := 0; i < serveClipBodies; i++ {
		n := 8 + rng.Intn(64)
		subj, clip := circleWKT(0, 0, 10, n), circleWKT(rng.Float64()*4-2, rng.Float64()*4-2, 10, n)
		op := rng.Intn(len(ops))
		body, err := json.Marshal(map[string]string{"subject": subj, "clip": clip, "op": ops[op]})
		if err != nil {
			return in, err
		}
		a, errA := polyclip.ParseWKT(subj)
		b, errB := polyclip.ParseWKT(clip)
		if err := errors.Join(errA, errB); err != nil {
			return in, err
		}
		out, _, err := polyclip.ClipCtx(ctx, a, b, polyclip.Op(op), polyclip.Options{})
		if err != nil {
			return in, fmt.Errorf("reference clip %d: %w", i, err)
		}
		in.clips = append(in.clips, serveReq{path: "/clip", body: body, want: out.Area()})
	}
	for i := 0; i < serveTileLayers; i++ {
		layerWKT := polyclip.FormatWKT(data.TileLayer(data.TileLayerOptions{Rings: 4, NoLake: true, Seed: seed*16 + int64(i)}))
		layer, err := polyclip.ParseWKT(layerWKT)
		if err != nil {
			return in, err
		}
		spec := tile.Spec{MinZoom: 0, MaxZoom: 2, Extent: tile.SquareExtent(layer.BBox())}
		tiles, _, err := tile.Cut(ctx, layer, spec, tile.Options{})
		if err != nil {
			return in, fmt.Errorf("reference cut %d: %w", i, err)
		}
		want := 0.0
		for _, t := range tiles {
			want += t.Poly.Area()
		}
		body, err := json.Marshal(map[string]any{"layer": layerWKT, "minZoom": spec.MinZoom, "maxZoom": spec.MaxZoom})
		if err != nil {
			return in, err
		}
		in.tiles = append(in.tiles, serveReq{path: "/tile", body: body, want: want})
	}
	return in, nil
}

// pick returns request i of the mix.
func (in serveInputs) pick(i int) serveReq {
	if i%serveTileEvery == serveTileEvery-1 {
		return in.tiles[(i/serveTileEvery)%len(in.tiles)]
	}
	return in.clips[(i*7)%len(in.clips)]
}

// outcome is how one request ended.
type outcome uint8

const (
	outOK      outcome = iota
	outFailed          // transport error or a non-2xx, non-503 answer
	outRefused         // 503: shed
	outWrong           // answered, but the result area is wrong
)

// record is one generated request's timeline.
type record struct {
	due, sent, done time.Time
	tile            bool
	out             outcome
}

// latencyMs is the request's latency from its due time; a request that
// did not produce a correct answer misses any limit.
func (r record) latencyMs() float64 {
	if r.out != outOK {
		return math.Inf(1)
	}
	return ms(r.done.Sub(r.due))
}

// lateMs is how late the generator sent the request.
func (r record) lateMs() float64 { return ms(r.sent.Sub(r.due)) }

// openLoop sends n requests at a fixed rate from conns workers. Request i
// falls due at start + i/rate whether or not earlier requests have been
// answered; a worker that picks it up late sends it at once, so a stall
// shows as latency of every request queued behind it. send returns when
// its answer was complete.
func openLoop(rate float64, n, conns int, send func(i int) (tile bool, out outcome, done time.Time)) []record {
	recs := make([]record, n)
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				r := record{due: due, sent: time.Now()}
				r.tile, r.out, r.done = send(i)
				recs[i] = r
			}
		}()
	}
	wg.Wait()
	return recs
}

// rung summarizes an open-loop step for the ladder rule.
func rung(rate float64, conns int, recs []record) stat.Rung {
	r := stat.Rung{Rate: rate, Conns: conns}
	last := recs[len(recs)-1].due
	for _, rec := range recs {
		r.LatMs = append(r.LatMs, rec.latencyMs())
		if !rec.due.After(last) && rec.sent.After(last) {
			r.Backlog++
		}
	}
	return r
}

// client sends the workload's requests and checks every answer.
type client struct {
	base string
	http *http.Client
	in   serveInputs
}

func newClient(base string, conns int, in serveInputs) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, in: in}
}

// do sends request i of the mix and checks the answer; done is when the
// answer had been read, before the check.
func (c *client) do(i int) (tile bool, out outcome, done time.Time) {
	req := c.in.pick(i)
	body, status, err := c.roundTrip(req)
	done = time.Now()
	return req.path == "/tile", check(req, body, status, err), done
}

// roundTrip posts one request and reads the whole answer.
func (c *client) roundTrip(req serveReq) (body []byte, status int, err error) {
	resp, err := c.http.Post(c.base+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// check classifies one answer, comparing a 200's result area with the
// reference.
func check(req serveReq, body []byte, status int, err error) outcome {
	switch {
	case err != nil:
		return outFailed
	case status == http.StatusServiceUnavailable:
		return outRefused
	case status != http.StatusOK:
		return outFailed
	}
	got, err := responseArea(body, req.path == "/tile")
	if err != nil || math.Abs(got-req.want) > serveAreaTol*math.Max(1, math.Abs(req.want)) {
		return outWrong
	}
	return outOK
}

// responseArea sums the area of a /clip result or of every /tile tile.
func responseArea(body []byte, tile bool) (float64, error) {
	if !tile {
		var r serve.ClipResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return 0, err
		}
		p, err := polyclip.ParseGeoJSON(r.Result)
		if err != nil {
			return 0, err
		}
		return p.Area(), nil
	}
	var r serve.TileResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, err
	}
	area := 0.0
	for _, t := range r.Tiles {
		p, err := polyclip.ParseGeoJSON(t.Geometry)
		if err != nil {
			return 0, err
		}
		area += p.Area()
	}
	return area, nil
}

// statz fetches the server's aggregate counters over HTTP.
func (c *client) statz() (serve.Statz, error) {
	var s serve.Statz
	resp, err := c.http.Get(c.base + "/statz")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// stageMs reads /metrics.csv and returns the p50 queue wait (flush −
// enqueue) and service time (done − flush) of requests received at or
// after sinceNs.
func (c *client) stageMs(sinceNs int64) (queue, service float64, err error) {
	resp, err := c.http.Get(c.base + "/metrics.csv")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	rows, err := csv.NewReader(resp.Body).ReadAll()
	if err != nil || len(rows) < 2 {
		return 0, 0, fmt.Errorf("metrics.csv: %d rows, %v", len(rows), err)
	}
	col := map[string]int{}
	for i, h := range rows[0] {
		col[h] = i
	}
	get := func(row []string, name string) int64 {
		v, _ := strconv.ParseInt(row[col[name]], 10, 64)
		return v
	}
	var qs, ss []float64
	for _, row := range rows[1:] {
		if get(row, "recvNs") < sinceNs || get(row, "flushNs") == 0 {
			continue
		}
		enq, flush, done := get(row, "enqueueNs"), get(row, "flushNs"), get(row, "doneNs")
		qs = append(qs, float64(flush-enq)/1e6)
		ss = append(ss, float64(done-flush)/1e6)
	}
	return stat.Median(qs), stat.Median(ss), nil
}

// server is a serve.Server behind a loopback HTTP listener.
type server struct {
	srv  *serve.Server
	http *http.Server
	base string
	done chan error
}

func startServer(seed int64) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.NewServer(serve.Config{Seed: seed}), base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the server down and waits for both.
func (s *server) stop() error {
	err := s.http.Shutdown(context.Background())
	s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// tallyRecords folds request outcomes into the run's tally.
func tallyRecords(rep *report, recs []record) {
	for _, r := range recs {
		rep.tally.Attempted++
		switch r.out {
		case outFailed:
			rep.tally.Failed++
		case outRefused:
			rep.tally.Refused++
		case outWrong:
			rep.tally.Wrong++
		}
	}
}

func runServe(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	in, err := timedSetup(rep, func() (serveInputs, error) { return serveSetup(ctx, cfg.seed) })
	if err != nil {
		return nil, err
	}
	srv, err := startServer(cfg.seed)
	if err != nil {
		return nil, err
	}
	c := newClient(srv.base, cfg.threads, in)
	// Send every distinct request once: connections open, the shared
	// cache's prepare tier fills, lazy set-up finishes.
	for _, req := range append(append([]serveReq(nil), in.clips...), in.tiles...) {
		body, status, err := c.roundTrip(req)
		if out := check(req, body, status, err); out != outOK {
			return nil, errors.Join(fmt.Errorf("warm-up %s request: outcome %d", req.path, out), srv.stop())
		}
	}
	if cfg.trace {
		err = serveLayers(cfg, c, rep)
	} else {
		err = serveMeasure(cfg, c, rep)
	}
	c.http.CloseIdleConnections()
	return rep, errors.Join(err, srv.stop())
}

// serveMeasure runs every ladder step. The ladder rule's verdict goes to
// stderr; throughput_per_s is the median capacity of the overload step's
// loops (see overload), which moves with any change to the cost of a
// request, where the highest passing step of a coarse ladder would not.
// Latencies and capacity are reported at reference speed, by a kernel
// run on one goroutine every calibEvery through the steps below the
// overload step (see speedometer.every). When the host slowed by about a
// quarter, the kernel, the latencies and the capacity all moved by about
// that much. A busy loop on one of the two CPUs, by contrast, slowed the
// kernel by 1.3 to 1.5 times and serve by under a tenth, so contention of
// that kind reads as a gain.
func serveMeasure(cfg config, c *client, rep *report) error {
	var rungs []stat.Rung
	var ref []record
	var rates []float64
	sp := &speedometer{threads: 1}
	stopKernel := sp.every()
	for i, step := range serveLadder {
		n := int(step.rate * step.share * cfg.seconds)
		var recs []record
		if i == len(serveLadder)-1 {
			// The kernel's CPU time would count against capacity.
			stopKernel()
			recs, rates = overload(step.rate, n, cfg.threads, c)
		} else {
			recs = openLoop(step.rate, n, cfg.threads, c.do)
		}
		if step.rate == serveRefRate {
			ref = recs
		}
		tallyRecords(rep, recs)
		r := rung(step.rate, cfg.threads, recs)
		rungs = append(rungs, r)
		fmt.Fprintf(os.Stderr, "step %5.0f req/s: p99=%.2fms backlog=%d achieved=%.1f/s pass=%v\n",
			step.rate, stat.Percentile(stat.Sorted(r.LatMs), stat.LimitPercentile), r.Backlog, achieved(recs), r.Passes(serveLimitMs))
	}
	scale := sp.scale()
	var clipT, tileT timings
	for _, rec := range ref {
		if rec.tile {
			tileT = append(tileT, rec.latencyMs())
		} else {
			clipT = append(clipT, rec.latencyMs())
		}
	}
	setClass(rep, "class1", "serve_clip", clipT, scale)
	setClass(rep, "class2", "serve_tile", tileT, scale)
	best := stat.MaxPassing(rungs, serveLimitMs)
	if best < 0 {
		return fmt.Errorf("the lowest ladder step misses the %dms p99 limit", serveLimitMs)
	}
	capacity := stat.Median(rates)
	rep.e2e["throughput_per_s"] = capacity / scale
	fmt.Fprintf(os.Stderr, "serve_max_rps=%.1f at reference speed, raw %.1f (capacity at the %.0f req/s overload step, median of %v); ladder rule: highest passing step %.0f req/s\n",
		capacity/scale, capacity, rungs[len(rungs)-1].Rate, rates, rungs[best].Rate)
	return nil
}

// capacityChunks is how many open loops the overload step's requests are
// split into.
const capacityChunks = 25

// overload runs the overload step as capacityChunks open loops of
// n/capacityChunks requests each and returns the step's records and each
// loop's capacity: correct answers per CPU-second of the process, times
// nproc, the rate the process would answer with every CPU busy. Per
// CPU-second, because on nproc connections the wall-clock rate is bound
// by round trips, and on a shared host these stretch whenever another
// tenant takes a CPU: over six runs of one build the wall rate ranged
// 257 to 552 req/s while this figure stayed within 10%. The CPU time
// includes the generator and client, which run in the same process.
func overload(rate float64, n, threads int, c *client) (recs []record, capacity []float64) {
	for k := 0; k < capacityChunks; k++ {
		c0 := cpuSeconds()
		chunk := openLoop(rate, n/capacityChunks, threads, c.do)
		capacity = append(capacity, cpuRate(chunk, cpuSeconds()-c0, threads))
		recs = append(recs, chunk...)
	}
	return recs, capacity
}

// cpuRate is threads times the correct answers per CPU-second.
func cpuRate(recs []record, cpuSecs float64, threads int) float64 {
	ok := 0
	for _, r := range recs {
		if r.out == outOK {
			ok++
		}
	}
	return float64(threads) * float64(ok) / cpuSecs
}

// cpuSeconds is the process's user and system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// achieved is the rate at which a step's requests were answered
// correctly, over the span from the first due time to the last answer.
func achieved(recs []record) float64 {
	ok := 0
	end := recs[0].due
	for _, r := range recs {
		if r.out == outOK {
			ok++
		}
		if r.done.After(end) {
			end = r.done
		}
	}
	return float64(ok) / end.Sub(recs[0].due).Seconds()
}

// serveLayers is the traced run. A third of the time repeats the
// reference step untraced and reads the server's own counters around it
// (/statz deltas, /metrics.csv stage times). The rest runs a closed loop
// with every connection busy, first untraced, then with a span around each
// request, so the spans cover the run and the two halves give the tracing
// overhead.
func serveLayers(cfg config, c *client, rep *report) error {
	third := cfg.seconds / 3
	before, err := c.statz()
	if err != nil {
		return err
	}
	since := time.Now().UnixNano()
	ref := openLoop(serveRefRate, int(serveRefRate*third), cfg.threads, c.do)
	tallyRecords(rep, ref)
	after, err := c.statz()
	if err != nil {
		return err
	}
	queue, service, err := c.stageMs(since)
	if err != nil {
		return err
	}
	rep.layer["serve.queue_wait_ms_p50"] = queue
	rep.layer["serve.service_ms_p50"] = service
	if f := after.BatchFlushes - before.BatchFlushes; f > 0 {
		rep.layer["serve.batch_size_mean"] = float64(after.BatchedRequests-before.BatchedRequests) / float64(f)
	}
	rep.layer["serve.shed"] = float64(after.Shed - before.Shed)
	rep.layer["serve.degraded_served"] = float64(after.DegradedServed - before.DegradedServed)
	if n := (after.CacheHits + after.CacheMisses) - (before.CacheHits + before.CacheMisses); n > 0 {
		rep.layer["serve.cache_hit_rate"] = float64(after.CacheHits-before.CacheHits) / float64(n)
	}
	var late []float64
	for _, r := range ref {
		late = append(late, r.lateMs())
	}
	rep.layer["serve.gen_late_ms_p99"] = stat.Percentile(stat.Sorted(late), 99)

	closed := func(tr *Tracer, d time.Duration) timings {
		var mu sync.Mutex
		var t timings
		var next atomic.Int64
		var wg sync.WaitGroup
		deadline := time.Now().Add(d)
		for w := 0; w < cfg.threads; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					req := c.in.pick(int(next.Add(1) - 1))
					t0 := time.Now()
					id := tr.Begin(tr.Op(), -1, "serve"+strings.Replace(req.path, "/", ".", 1))
					body, status, err := c.roundTrip(req)
					tr.End(id)
					d := time.Since(t0)
					out := check(req, body, status, err)
					mu.Lock()
					t.add(d)
					tallyRecords(rep, []record{{out: out}})
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return t
	}
	untraced := closed(nil, time.Duration(third*float64(time.Second)))
	tr := NewTracer()
	from := tr.Now()
	traced := closed(tr, time.Duration(third*float64(time.Second)))
	to := tr.Now()
	rep.layer["trace.coverage_pct"] = Coverage(tr.Spans(), [][2]int64{{from, to}})
	rep.layer["trace.overhead_pct"] = 100 * (traced.p50()/untraced.p50() - 1)
	return writeSpans(cfg, "serve", tr)
}
