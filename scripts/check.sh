#!/bin/sh
# Full verification sweep, the one CI path: `make check` runs this script,
# and the Makefile's per-step targets run single steps of it. With no
# arguments every step runs in order; name steps to run only those, e.g.
#
#	sh scripts/check.sh cover chaos
#
# Steps: vet build test cover race differential conformance benchsmoke fuzz
# chaos tilecut. Tunables (environment): FUZZTIME (10s), CHAOS_SEED (1),
# CHAOS_CASES (200), COVER_FLOOR (80), COVER_FLOOR_TILES (85).
set -eu
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"
CHAOS_SEED="${CHAOS_SEED:-1}"
CHAOS_CASES="${CHAOS_CASES:-200}"
COVER_FLOOR="${COVER_FLOOR:-80}"
COVER_FLOOR_TILES="${COVER_FLOOR_TILES:-85}"

# cover_floor FLOOR PKG... fails unless every package's statement coverage
# is at least FLOOR percent.
cover_floor() {
	floor=$1
	shift
	for pkg in "$@"; do
		pct=$(go test -cover "$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
		if [ -z "$pct" ]; then
			echo "could not parse coverage for $pkg" >&2
			exit 1
		fi
		if ! awk -v p="$pct" -v f="$floor" 'BEGIN{exit !(p >= f)}'; then
			echo "coverage for $pkg is ${pct}%, below the ${floor}% floor" >&2
			exit 1
		fi
		echo "$pkg: ${pct}%"
	done
}

step_vet() {
	echo "== go vet"
	go vet ./...
}

step_build() {
	echo "== go build"
	go build ./...
}

step_test() {
	echo "== go test"
	go test ./...
}

# Per-package statement-coverage floors for the engine packages whose
# correctness the differential oracles lean on, and a higher floor for the
# tile-cutting fast paths: a missed branch there is a silently wrong tile,
# not a slow one.
step_cover() {
	echo "== coverage floor (engine packages >= ${COVER_FLOOR}%)"
	cover_floor "$COVER_FLOOR" ./internal/vatti/ ./internal/arrange/ ./internal/engine/ ./internal/scanbeam/ \
		./internal/serve/ ./internal/core/ ./internal/overlay/ ./internal/pool/ ./internal/par/ \
		./internal/batch/ ./internal/acache/
	echo "== coverage floor (prepared, tile >= ${COVER_FLOOR_TILES}%)"
	cover_floor "$COVER_FLOOR_TILES" ./internal/prepared/ ./internal/tile/
}

step_race() {
	echo "== go test -race ./internal/pool ./internal/par (scheduler battery + fan-out edges first: fast signal)"
	go test -race ./internal/pool/ ./internal/par/

	echo "== adversarial predicates vs exact oracle under -race"
	go test -race -run 'Adversarial|MatchesOrientOracle' ./internal/geom/

	echo "== go test -race"
	go test -race ./...

	echo "== serve layer under -race (batcher, admission control, fault sites)"
	go test -race -count=1 ./internal/serve/

	echo "== chaos through the server (5s, fixed seed: 0 crashes, every shed = 503 + Retry-After)"
	SERVE_CHAOS_MS=5000 go test -race -count=1 -run TestServeChaosSmoke ./internal/serve/
}

# The golden-file differential corpus must agree across all engines with
# the race detector watching the parallel ones.
step_differential() {
	echo "== differential corpus under -race"
	go test -race -run TestDifferentialCorpus .
}

# Engine conformance: every registered engine against the golden corpus,
# the rule x op capability matrix, trapezoid declarations, cancellation.
step_conformance() {
	echo "== engine conformance suite under -race"
	go test -race -run TestConformance ./internal/engine/
}

step_benchsmoke() {
	echo "== bench smoke (one iteration, alloc counters live)"
	go test -run='^$' -bench=. -benchtime=1x -benchmem . > /dev/null
}

# Each native fuzz target gets a short smoke run; raise FUZZTIME for real
# fuzzing sessions (e.g. FUZZTIME=10m). FuzzServeRequest lives in
# internal/serve and fuzzes the whole HTTP serving path.
step_fuzz() {
	for t in FuzzParseWKT FuzzParseGeoJSON FuzzClipRoundTrip FuzzClipAllEngines; do
		echo "== fuzz $t ($FUZZTIME)"
		go test -run='^$' -fuzz="^$t\$" -fuzztime="$FUZZTIME" .
	done
	echo "== fuzz FuzzServeRequest ($FUZZTIME, whole HTTP serve path)"
	go test -run='^$' -fuzz='^FuzzServeRequest$' -fuzztime="$FUZZTIME" ./internal/serve/
}

# Deterministic chaos sweeps: a clean invariant run, a faulted run (every
# case takes one injected panic/hang/corruption), a budgeted faulted run
# that exercises the stage watchdog, a degenerate-taxonomy sweep (seed 7:
# exact coincidences — shared edges, collinear overlaps, T-vertices,
# coincident rings — under every fill rule) and a tiling sweep (seed 5:
# pyramid partition invariants across all rules). Same seed, same cases,
# same verdict.
step_chaos() {
	echo "== chaos (seed $CHAOS_SEED, $CHAOS_CASES cases, clean)"
	go run ./cmd/chaos -seed "$CHAOS_SEED" -cases "$CHAOS_CASES"

	echo "== chaos (seed $CHAOS_SEED, $CHAOS_CASES cases, faulted)"
	go run ./cmd/chaos -seed "$CHAOS_SEED" -cases "$CHAOS_CASES" -faults

	echo "== chaos (seed $CHAOS_SEED, 60 cases, faulted, 500ms stage budget)"
	go run ./cmd/chaos -seed "$CHAOS_SEED" -cases 60 -faults -budget 500ms

	echo "== chaos (seed 7, 320 cases, degenerate taxonomy: exact coincidences, all rules)"
	go run ./cmd/chaos -seed 7 -cases 320 -family degenerate

	echo "== chaos (seed 5, 120 cases, tiles: pyramid partition invariants, all rules)"
	go run ./cmd/chaos -seed 5 -cases 120 -family tiles
}

step_tilecut() {
	echo "== tilecut smoke (datagen layer through the prepared pipeline, WKT out)"
	TILE_TMP=$(mktemp -d)
	trap 'rm -rf "$TILE_TMP"' EXIT INT TERM
	go run ./cmd/datagen -tiles 32 -seed 3 -o "$TILE_TMP/layer.wkt"
	go run ./cmd/tilecut -in "$TILE_TMP/layer.wkt" -zooms 0:3 -o "$TILE_TMP/tiles.ndjson" -stats 2> "$TILE_TMP/stats.json"
	TILE_COUNT=$(wc -l < "$TILE_TMP/tiles.ndjson")
	if [ "$TILE_COUNT" -lt 1 ]; then
		echo "tilecut emitted no tiles" >&2
		exit 1
	fi
	go run ./cmd/tilecut -in "$TILE_TMP/layer.wkt" -zooms 0:3 -naive -o "$TILE_TMP/naive.ndjson"
	NAIVE_COUNT=$(wc -l < "$TILE_TMP/naive.ndjson")
	if [ "$TILE_COUNT" != "$NAIVE_COUNT" ]; then
		echo "tilecut prepared ($TILE_COUNT tiles) and naive ($NAIVE_COUNT tiles) disagree" >&2
		exit 1
	fi
	echo "tilecut: $TILE_COUNT tiles, prepared and naive agree"
}

if [ $# -eq 0 ]; then
	set -- vet build test cover race differential conformance benchsmoke fuzz chaos tilecut
fi
for step in "$@"; do
	case "$step" in
	vet | build | test | cover | race | differential | conformance | benchsmoke | fuzz | chaos | tilecut)
		"step_$step"
		;;
	*)
		echo "unknown step: $step" >&2
		exit 2
		;;
	esac
done
echo "checks passed: $*"
