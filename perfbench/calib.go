package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"polyclip/perfbench/stat"
)

// The host this benchmark runs on is shared: its speed drifts by up to
// 1.7x within half an hour, moving every wall and CPU time with it. So the
// workloads also time a fixed calibration kernel, stdlib code the program
// under test never touches, between their operations, and report
// compute-bound times at reference speed: the raw time scaled by the
// kernel's reference time over its median time in the same run. A change
// to the program moves the raw times and leaves the kernel alone, so it
// shows in full; a change in host speed moves both and cancels. Raw times
// go to stderr.

// calibRefMs is the kernel's median wall time between clips on the
// reference host (see meta.json); it only sets the scale of the reported
// times.
const calibRefMs = 3.0

// calibEvery is how often, at most, the kernel runs between operations.
const calibEvery = 200 * time.Millisecond

// calibInput is the kernel's fixed input.
var calibInput = func() []float64 {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, 1<<15)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}()

// calibSink keeps the kernel's result live.
var calibSink atomic.Uint64

// calibKernel runs the kernel once on each of threads goroutines — a
// sort, float math, and map inserts and lookups, the workloads' mix of
// comparisons, arithmetic, allocation and hashing — and returns its wall
// time.
func calibKernel(threads int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := append([]float64(nil), calibInput...)
			sort.Float64s(v)
			acc := 0.0
			m := make(map[uint64]float64, len(v)/4)
			for i, x := range v {
				acc += math.Sqrt(x) * math.Sin(x*float64(i))
				if i%4 == 0 {
					m[math.Float64bits(x)] = acc
				}
			}
			for _, x := range v[:len(v)/2] {
				acc += m[math.Float64bits(x)]
			}
			calibSink.Store(math.Float64bits(acc))
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// speedometer times the kernel at most every calibEvery.
type speedometer struct {
	threads int
	last    time.Time
	ms      timings
}

func newSpeedometer(threads int) *speedometer {
	s := &speedometer{threads: threads}
	s.measure()
	return s
}

// measure collects garbage first, outside the timing, so the kernel runs
// on a quiet heap: with a collection in flight it would pay mark assists
// sized by the program's heap, and a change that allocates more would slow
// the kernel and hide part of its own cost.
func (s *speedometer) measure() {
	runtime.GC()
	s.ms.add(calibKernel(s.threads))
	s.last = time.Now()
}

// tick runs the kernel when calibEvery has passed since it last ran; call
// it between operations, outside their timing.
func (s *speedometer) tick() {
	if time.Since(s.last) >= calibEvery {
		s.measure()
	}
}

// every times the kernel every calibEvery on its own goroutine, for a
// workload whose operations the caller does not drive one by one, until
// the returned stop is called; stop waits for the goroutine to end. Each
// timed run follows an untimed one: in a process that idles between
// requests, a kernel started cold read from 1 to 2.5 times its time
// between clips.
func (s *speedometer) every() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(calibEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				calibKernel(s.threads)
				s.measure()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// scale is the factor that brings this run's times to reference speed:
// below 1 when the host runs slower than the reference.
func (s *speedometer) scale() float64 {
	return calibRefMs / stat.Median(s.ms)
}
