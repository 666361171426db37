package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueTime: with one connection and a server slower
// than the offered rate, requests queue behind each other. Latency must
// count that queueing (timed from the due time, not the send time), the
// generator must report itself late, and the backlog must show.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		rate    = 1000 // one request due every millisecond
		n       = 40
		service = 5 * time.Millisecond
	)
	recs := openLoop(rate, n, 1, func(int) (bool, outcome, time.Time) {
		time.Sleep(service)
		return false, outOK, time.Now()
	})
	last := recs[n-1]
	// Request i is sent no earlier than i*service but was due at i ms.
	minLate := ms(time.Duration(n-1)*service - time.Duration(n-1)*time.Millisecond)
	if got := last.lateMs(); got < minLate {
		t.Errorf("last request late by %.1fms, want at least %.1fms", got, minLate)
	}
	if got := last.latencyMs(); got < minLate+ms(service) {
		t.Errorf("last latency %.1fms does not include its %.1fms wait", got, minLate)
	}
	if got := ms(last.done.Sub(last.sent)); got > last.latencyMs()/4 {
		t.Errorf("service time %.1fms is not the small part of the latency %.1fms", got, last.latencyMs())
	}
	r := rung(rate, 1, recs)
	if r.Backlog <= r.Conns || r.Passes(1000) {
		t.Errorf("overloaded step: backlog %d, passes %v", r.Backlog, r.Passes(1000))
	}
	for i := 1; i < n; i++ {
		if want := time.Duration(i) * time.Millisecond; recs[i].due.Sub(recs[0].due) != want {
			t.Fatalf("request %d due %v after the first, want %v", i, recs[i].due.Sub(recs[0].due), want)
		}
	}
}

// TestOpenLoopKeepsUp: below capacity the generator sends on time and a
// step passes.
func TestOpenLoopKeepsUp(t *testing.T) {
	recs := openLoop(100, 20, 2, func(int) (bool, outcome, time.Time) {
		time.Sleep(time.Millisecond)
		return false, outOK, time.Now()
	})
	r := rung(100, 2, recs)
	if !r.Passes(50) {
		t.Errorf("light step fails: backlog %d, latencies %v", r.Backlog, r.LatMs)
	}
	for i, rec := range recs {
		if rec.lateMs() > 20 {
			t.Errorf("request %d sent %.1fms late", i, rec.lateMs())
		}
	}
}

// TestFailureAccounting: every outcome other than a correct answer counts
// against the run, and misses any latency limit.
func TestFailureAccounting(t *testing.T) {
	now := time.Now()
	recs := []record{
		{due: now, sent: now, done: now.Add(time.Millisecond), out: outOK},
		{due: now, sent: now, done: now, out: outFailed},
		{due: now, sent: now, done: now, out: outRefused},
		{due: now, sent: now, done: now, out: outWrong},
	}
	rep := newReport()
	tallyRecords(rep, recs)
	tl := rep.tally
	if tl.Attempted != 4 || tl.Failed != 1 || tl.Refused != 1 || tl.Wrong != 1 || tl.ErrorRate() != 0.75 {
		t.Fatalf("tally %+v, error rate %v", tl, tl.ErrorRate())
	}
	for _, r := range recs[1:] {
		if !math.IsInf(r.latencyMs(), 1) {
			t.Errorf("outcome %d has finite latency %v", r.out, r.latencyMs())
		}
	}
	if got := recs[0].latencyMs(); got != 1 {
		t.Errorf("correct answer latency %v, want 1ms", got)
	}
}

// TestCPURate: an overload loop's capacity counts correct answers only,
// per CPU-second, times the thread count.
func TestCPURate(t *testing.T) {
	recs := make([]record, 10)
	recs[3].out = outWrong
	recs[7].out = outRefused
	if got, want := cpuRate(recs, 0.01, 2), 2*8/0.01; math.Abs(got-want) > 1e-9 {
		t.Errorf("capacity %v, want %v", got, want)
	}
}

func TestCoverage(t *testing.T) {
	spans := []Span{
		{Parent: -1, Start: 0, End: 40},
		{Parent: 0, Start: 10, End: 90},  // a child does not add coverage
		{Parent: -1, Start: 30, End: 60}, // overlaps the first: counted once
		{Parent: -1, Start: 150, End: 250},
	}
	// Windows [0,100) and [150,200): covered 60 + 50 of 150.
	got := Coverage(spans, [][2]int64{{0, 100}, {150, 200}})
	if math.Abs(got-100*110.0/150) > 1e-9 {
		t.Errorf("coverage %v, want %v", got, 100*110.0/150)
	}
	var tr *Tracer
	if id := tr.Begin(tr.Op(), -1, "x"); id != -1 {
		t.Error("nil tracer returned a span")
	}
}

// TestBenchmarkJSONMatchesMetrics: BENCHMARK.json lists exactly the
// metrics the benchmark prints, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
}
