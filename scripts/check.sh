#!/bin/sh
# check.sh — the repo's pre-merge gate: formatting, vet, and the full test
# suite under the race detector (the translation pipeline is concurrent;
# -race is the tier-1 bar, not an extra).
#
# Usage: scripts/check.sh
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
# The fuzzer's oracle test alone takes 520-600 s under -race on a 2-CPU
# host, at go test's 10-minute default; give the run explicit headroom.
go test -race -timeout 20m ./...

# perfbench is its own module, so ./... above never reaches it: run its
# result checker and smoke tests explicitly.
(cd perfbench && go test -count=1 .)

# The differential backend test is the compiled backend's correctness
# contract (identical state and Metrics on every workload under both
# backends), and re-checks the risc test executor on the same real boots
# and apps; run it by name so the gate fails loudly if it is ever renamed
# away or skipped.
go test -race -run 'TestBackendDifferential' -count=1 ./internal/bench/

# The simulated sections of `cmsbench -exp all` (the EXPERIMENTS.md tables)
# are pinned by digest: a change that keeps guest behaviour and Metrics must
# not move a byte of them. Run by name so the gate cannot be renamed away.
go test -run '^TestSimulatedSectionsGolden$' -count=1 ./internal/bench/

# The farm differential test is the serving subsystem's correctness
# contract (solo and in-farm runs byte-identical over the shared store,
# with duplicate workloads so cross-VM dedup engages); run the package by
# name, under -race, so cross-VM sharing bugs fail here.
# tcache rides along for the sharded-store torture test: shard regressions
# (single-flight, per-shard budgets, stats folding) must not land quietly.
go test -race -count=1 ./internal/farm/... ./internal/tcache/...

# Fault-containment chaos gate: hundreds of concurrent mixed jobs —
# injected panics, watchdog deadlines, healthy work — through every VM
# slot under -race, with replayable incident capture and bit-identity for
# the healthy jobs. Run by name so the capstone cannot be renamed away.
go test -race -count=1 -run 'TestChaosServing' ./internal/farm/

# Multicore farm smoke: a short sustained-load sweep through the farmscale
# harness at 1 and 4 VMs (GOMAXPROCS pinned per level). On a single-core
# host this prints the loud effective-parallelism warning and still checks
# the harness end to end.
go run ./cmd/cmsbench -exp farmscale -farmvms 1,4 -farmjobs 24

# go test compiles benchmarks but never runs them: run the one profiling
# benchmark once (a single pass over the eight hot kernels) so it cannot rot.
go test -run '^$' -bench '^BenchmarkEngineRun$' -benchtime 1x ./internal/bench/

# Generative fuzzer smoke: sweep 64 seeds through the full differential
# oracle — nine straight legs per seed (interp, xlate, compiled, the risc
# test executor, two pipeline widths, two shared-store runs, plus the
# random-boundary snapshot legs). A divergence writes a shrunk reproducer
# to internal/fuzzer/testdata/corpus/ and fails the gate.
go run ./cmd/cmsfuzz -seeds 64

# Native fuzz targets, a short session each: the ISA codec canonicality
# property, the bus fast-path/checked-path agreement property, and the
# three-executor (interpreted / compiled / risc-lowered) equivalence of
# synthesized atom codes.
go test -run '^$' -fuzz FuzzDecodeEncodeRoundtrip -fuzztime 5s ./internal/guest/
go test -run '^$' -fuzz FuzzBusReadWrite -fuzztime 5s ./internal/mem/
go test -run '^$' -fuzz FuzzRiscLowerRoundtrip -fuzztime 5s ./internal/risc/

# Coverage floors for the engine and translator, set just under the value
# measured when the gate was introduced (cms 82.0%, xlate 84.5%): new code
# in either package must bring tests along.
cover_gate() {
	pct=$(go test -cover -count=1 "$1" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
	if [ -z "$pct" ]; then
		echo "check.sh: no coverage figure for $1" >&2
		exit 1
	fi
	if [ "$(echo "$pct $2" | awk '{print ($1 < $2) ? 1 : 0}')" = 1 ]; then
		echo "check.sh: coverage for $1 fell to $pct% (floor $2%)" >&2
		exit 1
	fi
	echo "check.sh: coverage $1 $pct% (floor $2%)"
}
cover_gate ./internal/cms/ 78.0
cover_gate ./internal/xlate/ 80.0
# The risc test executor is held to a higher floor: it is a from-scratch
# second executor whose only consumer protection is its tests (94%+
# measured when the gate was introduced).
cover_gate ./internal/risc/ 80.0

# cmsserve smoke: start the daemon with incident capture armed, drive one
# healthy workload job plus one chaos-panic job over HTTP (the servesmoke
# client requires the panic to be contained and an incident bundle
# written), then SIGTERM and require a clean drain (exit 0). The captured
# bundle is replayed solo below — the flight-recorder contract end to end.
smokedir="${TMPDIR:-/tmp}/cms-serve-smoke"
rm -rf "$smokedir/incidents"
mkdir -p "$smokedir"
go build -o "$smokedir/cmsserve" ./cmd/cmsserve
"$smokedir/cmsserve" -addr 127.0.0.1:18086 -vms 2 -incidents "$smokedir/incidents" >"$smokedir/log" 2>&1 &
serve_pid=$!
smoke_ok=0
smoke_out=""
if smoke_out=$(go run ./scripts/servesmoke -addr http://127.0.0.1:18086 -chaos); then
	smoke_ok=1
fi
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
	echo "check.sh: cmsserve did not drain cleanly on SIGTERM" >&2
	cat "$smokedir/log" >&2
	exit 1
fi
if [ "$smoke_ok" != 1 ]; then
	echo "check.sh: cmsserve smoke failed" >&2
	cat "$smokedir/log" >&2
	exit 1
fi
echo "check.sh: cmsserve smoke ok"

# Replay the incident the chaos smoke captured: cmsfuzz must reproduce the
# injected panic bit-exactly from the bundle alone.
incident=$(printf '%s\n' "$smoke_out" | sed -n 's/^servesmoke: incident //p' | head -1)
if [ -z "$incident" ]; then
	echo "check.sh: chaos smoke captured no incident bundle" >&2
	exit 1
fi
go run ./cmd/cmsfuzz -replay "$incident"
echo "check.sh: incident replay ok"

# Live-migration smoke: two daemons, one long job checkpointed mid-run on
# the source via POST /v1/migrate and finished on the target. servesmoke
# requires the migrated final state to be bit-identical to an uninterrupted
# reference run and the target's rehydrate counters to prove the restore
# path ran. The source daemon runs with -checkpoint-drain armed so the
# SIGTERM drain exercises that shutdown path too.
"$smokedir/cmsserve" -addr 127.0.0.1:18087 -vms 2 -checkpoint-drain "$smokedir/drain" >"$smokedir/logA" 2>&1 &
mig_a=$!
"$smokedir/cmsserve" -addr 127.0.0.1:18088 -vms 2 >"$smokedir/logB" 2>&1 &
mig_b=$!
mig_ok=0
if go run ./scripts/servesmoke -addr http://127.0.0.1:18087 -migrate-target http://127.0.0.1:18088; then
	mig_ok=1
fi
kill -TERM "$mig_a" "$mig_b"
if ! wait "$mig_a" || ! wait "$mig_b"; then
	echo "check.sh: a migration daemon did not drain cleanly on SIGTERM" >&2
	cat "$smokedir/logA" "$smokedir/logB" >&2
	exit 1
fi
if [ "$mig_ok" != 1 ]; then
	echo "check.sh: live-migration smoke failed" >&2
	cat "$smokedir/logA" "$smokedir/logB" >&2
	exit 1
fi
echo "check.sh: live-migration smoke ok"

# Build and smoke-run every example program: the examples exercise the
# public facade end to end, including the compiled hot path.
mkdir -p "${TMPDIR:-/tmp}/cms-examples"
for ex in examples/*/; do
	name=$(basename "$ex")
	bin="${TMPDIR:-/tmp}/cms-examples/$name"
	go build -o "$bin" "./$ex"
	"$bin" >/dev/null
	echo "check.sh: example $name ok"
done

echo "check.sh: all green"
