package engine

import "time"

// Stats reports where the time went, for the paper's figures, plus the
// resilience record of the hardened pipeline. It is the engine-facing half
// of the public Stats type: internal/core and the root package alias it.
//
// The JSON tags are a stable serialization contract (lower-camel names,
// durations as nanosecond integers) relied on by the clipd service and the
// BENCH_clipd.json artifacts; renaming a tag is a breaking change.
type Stats struct {
	// Engine is the registry name of the engine that produced the accepted
	// result, recorded by the resilience chain.
	Engine string `json:"engine,omitempty"`
	Slabs  int    `json:"slabs"` // number of slabs actually used
	// CrossingEstimate is the arrangement pre-scan's intersection-count
	// estimate (arrange.Resolve) that the adaptive slab count is
	// derived from; 0 when the engine does not run the pre-scan.
	CrossingEstimate int             `json:"crossingEstimate,omitempty"`
	Sort             time.Duration   `json:"sortNs"`                // Step 1–2: event sort
	Partition        time.Duration   `json:"partitionNs"`           // Steps 4–5: rectangle clipping into slabs
	Clip             time.Duration   `json:"clipNs"`                // Step 6: per-slab clipping (wall clock)
	Merge            time.Duration   `json:"mergeNs"`               // Step 8: merging partial outputs
	PerThread        []time.Duration `json:"perThreadNs,omitempty"` // per-slab clip time (Fig. 11 load balance)
	// Resilience records what the hardened clipping path did: input repair,
	// the engine attempts and their outcomes, and recovered worker panics.
	Resilience Resilience `json:"resilience"`
}

// Resilience is the record of the hardened pipeline's interventions for one
// clipping run. Its JSON tags share the Stats serialization contract.
type Resilience struct {
	// Repaired reports that guard.Repair modified an input (duplicate
	// vertices, spikes, or degenerate rings removed).
	Repaired bool `json:"repaired"`
	// Attempts lists every engine attempt as "name:outcome", in order —
	// e.g. ["slabs:panic", "overlay-coarse:audit-fail", "vatti:ok"].
	Attempts []string `json:"attempts,omitempty"`
	// Recovered counts worker panics (or abandoned stages) that were rescued
	// — by a stage retry or a fallback engine — without surfacing an error.
	Recovered int `json:"recovered"`
	// StageTimeouts counts pipeline stages abandoned by their watchdog
	// because the stage's share of the deadline expired before every worker
	// finished.
	StageTimeouts int `json:"stageTimeouts"`
	// Retries counts stage-level retry attempts: a timed-out or panicked
	// stage is re-run once, sequentially, on fresh buffers.
	Retries int `json:"retries"`
	// InvariantFailures counts failed result-invariant checks: audit
	// rejections in the differential-fallback chain and metamorphic
	// invariant violations found by the chaos harness.
	InvariantFailures int `json:"invariantFailures"`
}

// Merge accumulates another record's counters into r (the Attempts list is
// concatenated). Used when one logical clip runs several engine attempts,
// each with its own Stats.
func (r *Resilience) Merge(o Resilience) {
	r.Repaired = r.Repaired || o.Repaired
	r.Attempts = append(r.Attempts, o.Attempts...)
	r.Recovered += o.Recovered
	r.StageTimeouts += o.StageTimeouts
	r.Retries += o.Retries
	r.InvariantFailures += o.InvariantFailures
}

// CriticalPath returns the modelled parallel clip time: the maximum
// per-thread clip time. On hosts with fewer cores than threads the wall
// clock cannot show the paper's scaling; max-over-slabs is the
// machine-independent quantity the speedup figures are shaped by.
func (s *Stats) CriticalPath() time.Duration {
	var m time.Duration
	for _, d := range s.PerThread {
		if d > m {
			m = d
		}
	}
	return m
}

// TotalWork returns the summed per-thread clip time.
func (s *Stats) TotalWork() time.Duration {
	var t time.Duration
	for _, d := range s.PerThread {
		t += d
	}
	return t
}

// ModelledParallel returns the modelled end-to-end duration with p
// concurrent workers: sort + partition + per-slab work scheduled greedily
// over p workers + merge. This is what Figures 8/10/12 plot when the host
// has fewer physical cores than threads.
func (s *Stats) ModelledParallel(p int) time.Duration {
	if p <= 0 {
		p = 1
	}
	// Greedy longest-processing-time schedule of slab times onto p workers.
	loads := make([]time.Duration, p)
	for _, d := range s.PerThread {
		mi := 0
		for i := 1; i < p; i++ {
			if loads[i] < loads[mi] {
				mi = i
			}
		}
		loads[mi] += d
	}
	var mx time.Duration
	for _, l := range loads {
		if l > mx {
			mx = l
		}
	}
	return s.Sort + s.Partition + mx + s.Merge
}
