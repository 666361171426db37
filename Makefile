# Every verification step lives in scripts/check.sh, the one CI path:
# `make check` runs all of it, and each step target below runs one step.
# Its tunables pass through the environment, e.g.
# `make chaos CHAOS_CASES=50` or `make fuzz FUZZTIME=10m`.
export FUZZTIME CHAOS_SEED CHAOS_CASES COVER_FLOOR COVER_FLOOR_TILES
CHECK := sh scripts/check.sh

PROFILE_EXP ?= table2
PROFILE_DIR ?= /tmp/polyclip-prof

.PHONY: check build vet test cover race differential conformance fuzz chaos tilecut profile clipd loadtest bench scaling overlay-bench tile-bench

check:
	$(CHECK)

build vet test cover race differential conformance fuzz chaos tilecut:
	$(CHECK) $@

# CPU and heap profiles of one bench experiment (default table2, the
# scanbeam hot path). Inspect with `go tool pprof $(PROFILE_DIR)/cpu.prof`.
profile:
	@mkdir -p $(PROFILE_DIR)
	go run ./cmd/bench -exp $(PROFILE_EXP) \
		-cpuprofile $(PROFILE_DIR)/cpu.prof -memprofile $(PROFILE_DIR)/mem.prof
	@echo "profiles in $(PROFILE_DIR): cpu.prof mem.prof"

# Short scaling smoke: one iteration of the two scaling benchmarks at 1 and
# 2 workers — enough to catch a pool regression (deadlock, lost task, gross
# slowdown) in CI without paying for a statistically meaningful run.
bench:
	go test -run='^$$' -bench='Fig8SlabClipPair|AlgorithmOne' -benchtime=1x -cpu 1,2 .

# Full scaling curve: Fig8SlabClipPair and AlgorithmOne at 1/2/4/8 workers,
# recorded to BENCH_scaling.json with the host's core count (the honest
# context for interpreting the curve — see EXPERIMENTS.md).
scaling:
	sh scripts/bench_scaling.sh

# Million-feature batch overlay benchmark: cold + warm runs through the
# arrangement cache, recorded to BENCH_overlay.json with an embedded
# contract gate (warm repeated-operand run >= 2x cold). Tune with
# OVERLAY_FEATURES / OVERLAY_REPEAT.
overlay-bench:
	sh scripts/bench_overlay.sh

# Vector-tile pyramid-cutting benchmark: naive per-tile clips vs the
# prepared pipeline, recorded to BENCH_tiles.json with embedded contract
# gates (prepared >= 2x naive; output bit-identical at 1/2/8 threads).
# Tune with TILES_RINGS / TILES_MAXZOOM.
tile-bench:
	sh scripts/bench_tiles.sh

# Build the serving daemon.
clipd:
	go build -o bin/clipd ./cmd/clipd
	go build -o bin/clipload ./cmd/clipload
	@echo "built bin/clipd and bin/clipload"

# Reproduce BENCH_clipd.json: clipd under open-loop load at two rates,
# a misbehaving-client phase, and a fault-injection (chaos-mode) phase.
loadtest: clipd
	sh scripts/bench_clipd.sh
