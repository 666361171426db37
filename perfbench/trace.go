package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one operation share Op; Parent is
// the index of the enclosing span, -1 at the top level.
type Span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"startNs"` // since the tracer started
	End    int64  `json:"endNs"`
}

// maxSpans caps the in-memory span log; later spans are counted, not kept.
const maxSpans = 1 << 20

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so one code path serves the traced and the untraced run.
type Tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []Span
	dropped int
	nextOp  int64
}

// NewTracer starts an empty span log.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Op allocates the identifier shared by one operation's spans.
func (t *Tracer) Op() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// Begin opens a span and returns its handle for End and for children.
func (t *Tracer) Begin(op int64, parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, Span{Name: name, Op: op, Parent: parent, Start: now})
	return int32(len(t.spans) - 1)
}

// End closes the span opened by Begin.
func (t *Tracer) End(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Do runs fn inside a span.
func (t *Tracer) Do(op int64, parent int32, name string, fn func()) {
	id := t.Begin(op, parent, name)
	fn()
	t.End(id)
}

// Now returns the tracer clock, comparable with span times.
func (t *Tracer) Now() int64 { return int64(time.Since(t.t0)) }

// Spans returns the recorded spans; call after every operation ended.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// MeanMs returns the mean duration of spans named name in milliseconds, 0
// when there are none.
func (t *Tracer) MeanMs(name string) float64 {
	var d int64
	n := 0
	for _, s := range t.Spans() {
		if s.Name == name {
			d += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(time.Duration(d)) / float64(n)
}

// Coverage returns the share, in percent, of the traced wall windows that
// top-level spans cover — the time the trace attributes to some layer.
// Overlapping top-level spans (concurrent requests) count once.
func Coverage(spans []Span, windows [][2]int64) float64 {
	var iv [][2]int64
	for _, s := range spans {
		if s.Parent < 0 {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	total := length(union(windows))
	if total == 0 {
		return 0
	}
	var covered int64
	for _, w := range union(windows) {
		for _, x := range union(iv) {
			if a, b := max(x[0], w[0]), min(x[1], w[1]); b > a {
				covered += b - a
			}
		}
	}
	return 100 * float64(covered) / float64(total)
}

// union merges intervals into sorted disjoint ones.
func union(iv [][2]int64) [][2]int64 {
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var out [][2]int64
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if n := len(out); n > 0 && x[0] <= out[n-1][1] {
			out[n-1][1] = max(out[n-1][1], x[1])
			continue
		}
		out = append(out, x)
	}
	return out
}

func length(iv [][2]int64) int64 {
	var n int64
	for _, x := range iv {
		n += x[1] - x[0]
	}
	return n
}

// tracedPairs runs op until the deadline in pairs: the i-th operation once
// untraced (tr nil), then once traced. Interleaving keeps drift (heap
// growth, a busy neighbour) out of the comparison. It returns the tracer,
// the spans' coverage of the traced operations' wall time, and the
// tracing overhead: traced over untraced wall time, in percent above 1.
func tracedPairs(deadline time.Time, op func(i int, tr *Tracer)) (tr *Tracer, coverage, overhead float64) {
	tr = NewTracer()
	var windows [][2]int64
	var untraced, traced int64
	for i := 0; time.Now().Before(deadline); i++ {
		t0 := tr.Now()
		op(i, nil)
		t1 := tr.Now()
		op(i, tr)
		t2 := tr.Now()
		untraced += t1 - t0
		traced += t2 - t1
		windows = append(windows, [2]int64{t1, t2})
	}
	if untraced == 0 {
		return tr, 0, 0
	}
	return tr, Coverage(tr.Spans(), windows), 100 * (float64(traced)/float64(untraced) - 1)
}

// WriteJSONL writes the span log, one JSON object per line.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", t.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
