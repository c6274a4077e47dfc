#!/usr/bin/env bash
# ci.sh — the checks a change must pass before merging.
#
#   ./ci.sh         # vet + build + race tests + benchmark smoke
#   ./ci.sh -short  # skip the slow full-harness tests
set -euo pipefail
cd "$(dirname "$0")"

short=""
if [[ "${1:-}" == "-short" ]]; then
  short="-short"
fi

echo "== go vet =="
go vet ./...

echo "== package documentation audit =="
# Every package (internal, public, command, example) must carry a doc
# comment immediately above its package clause in at least one file.
missing=0
for dir in $(go list -f '{{.Dir}}' ./...); do
  documented=0
  for f in "$dir"/*.go; do
    if awk 'prev ~ /^\/\// && /^package / {found=1} {prev=$0} END{exit found?0:1}' "$f"; then
      documented=1
      break
    fi
  done
  if [[ $documented -eq 0 ]]; then
    echo "missing package doc comment: ${dir#"$PWD"/}"
    missing=1
  fi
done
if [[ $missing -ne 0 ]]; then
  echo "package documentation audit FAILED"
  exit 1
fi

# The public access-method packages and the policy layer hold a stricter
# bar: every exported top-level declaration (and exported method) must
# carry a doc comment on the line directly above it.
undocumented=0
for f in btree/*.go heapfile/*.go internal/policy/*.go; do
  [[ "$f" == *_test.go ]] && continue
  awk -v file="$f" '
    /^(func|type|var|const) [A-Z]/ || /^func \([^)]*\) [A-Z]/ {
      if (prev !~ /^\/\//) { printf "undocumented exported identifier: %s: %s\n", file, $0; bad=1 }
    }
    { prev=$0 }
    END { exit bad ? 1 : 0 }
  ' "$f" || undocumented=1
done
if [[ $undocumented -ne 0 ]]; then
  echo "exported-identifier doc audit FAILED (btree/heapfile/policy)"
  exit 1
fi

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race $short ./...

echo "== benchmark smoke (1 iteration each, allocs reported) =="
go test -run '^$' -bench 'BenchmarkGetHit|BenchmarkGetMiss|BenchmarkUpdateCommit|BenchmarkGroupClean|BenchmarkTableChurn|BenchmarkMapChurn|BenchmarkSchedulerCalendar|BenchmarkSchedulerHeap|BenchmarkPolicy|BenchmarkSketch' \
  -benchtime=1x -benchmem .
go test -run '^$' -bench ProcSwitch -benchtime=1x -benchmem ./internal/sim

echo "== concurrency race tests (facade: every backend, 2PC, reopen; striped pool, group commit, server) =="
go test -race .
go test -race -run 'Striped' ./internal/bufpool
go test -race ./internal/policy
go test -race -run 'GroupCommitter' ./internal/wal
go test -race ./internal/netproto ./cmd/bpeserve
go test -race -short ./internal/loadbench

echo "== the benchmark's own tests, under the driver's file size limit (generator, manifest, -quick smoke of the real command) =="
# bench/ is its own module, so `go test ./...` above never runs it. A facade
# change that breaks the benchmark, or a file that outgrows the limit, fails here.
( ulimit -f 16384; cd bench && go test ./... )
# The root package's file-backed tests that fit the same limit: so far only the
# log-full test, which shrinks the log (every other one creates the 8 GiB
# sparse wal.log; ROADMAP item 1(a) extends this line to all of them).
( ulimit -f 16384; go test -run 'TestLogFullIsAnError' . )

echo "== golden determinism (each pair of runs must be byte-identical) =="
go build -o /tmp/bpesim-ci ./cmd/bpesim
# Each run prints its wall seconds: the harness time budget (ROADMAP 8(e)),
# visible per commit.
TIMEFORMAT='   wall: %1R s'
# id | flags of run A | flags of run B | experiments
while IFS='|' read -r id a b exps; do
  echo "-- $id: bpesim $a $exps  vs  bpesim $b $exps"
  time /tmp/bpesim-ci $a $exps > "/tmp/bpesim-ci-$id-a.out" 2>/dev/null
  time /tmp/bpesim-ci $b $exps > "/tmp/bpesim-ci-$id-b.out" 2>/dev/null
  cmp "/tmp/bpesim-ci-$id-a.out" "/tmp/bpesim-ci-$id-b.out"
done <<'TABLE'
all|-divisor 8192 -parallel 1|-divisor 8192 -parallel 4|all
index|-divisor 8192 -parallel 1|-divisor 8192 -parallel 4|index
policy|-divisor 8192 -parallel 1|-divisor 8192 -parallel 4|policy
faults|-parallel 1|-parallel 4|faults
corrupt|-parallel 1|-parallel 4|corrupt
csv|-divisor 8192 -parallel 1 -csv|-divisor 8192 -parallel 4 -csv|fig5-tpcc fig5-tpce fig5-tpch fig6 fig7 fig8 fig9 table3
TABLE
# ...and identical to the committed hashes (skipped by the -short race run above).
go test -run TestGoldenHashes ./internal/harness
if [[ -z "$short" ]]; then
  echo "-- results_1024.txt: bpesim -parallel 1 all at the default divisor vs the committed text"
  time /tmp/bpesim-ci -parallel 1 all 2>/dev/null | cmp - results_1024.txt
fi

echo "== scale smoke (fig5-tpcc at divisor 256, 120s budget) =="
timeout 120 /tmp/bpesim-ci -divisor 256 -parallel 1 fig5-tpcc > /tmp/bpesim-ci-scale.out 2>/dev/null
grep -q "== fig5-tpcc" /tmp/bpesim-ci-scale.out

echo "== server smoke (bpeserve + bpeload, ~30s budget) =="
go build -o /tmp/bpeserve-ci ./cmd/bpeserve
go build -o /tmp/bpeload-ci ./cmd/bpeload
smokedir=$(mktemp -d /tmp/bpeserve-ci-dir.XXXXXX)
/tmp/bpeserve-ci -addr 127.0.0.1:7971 -dir "$smokedir" -pages 8192 -pool 1024 -ssd 2048 \
  -duration 25s > /tmp/bpeserve-ci.out 2>&1 &
serve_pid=$!
sleep 1
timeout 20 /tmp/bpeload-ci -addr 127.0.0.1:7971 -readers 2 -writers 2 -pages 8192 \
  -duration 8s > /tmp/bpeload-ci.out 2>&1
# The load driver must report nonzero throughput...
grep -E 'total: [1-9][0-9]* ops' /tmp/bpeload-ci.out
# ...and the server must shut down cleanly with a summary.
wait "$serve_pid"
grep -E 'bpeserve: served [1-9][0-9]* ops' /tmp/bpeserve-ci.out
rm -rf "$smokedir" /tmp/bpeserve-ci.out /tmp/bpeload-ci.out

echo "== kill-9 chaos smoke (3 kill/restart cycles, acked commits re-verified, ~45s budget) =="
chaosdir=$(mktemp -d /tmp/bpechaos-ci-dir.XXXXXX)
timeout 45 /tmp/bpeload-ci -chaos 3 -server-bin /tmp/bpeserve-ci -dir "$chaosdir" \
  -cycle 500ms > /tmp/bpechaos-ci.out 2>&1
# Zero lost acked commits, zero torn pairs, zero stale or corrupt reads.
grep -E 'lost=0 stale=0 corrupt=0 torn-pairs=0 phantom=0 verify-fails=0' /tmp/bpechaos-ci.out | tail -1
rm -rf "$chaosdir" /tmp/bpeserve-ci /tmp/bpeload-ci /tmp/bpechaos-ci.out

rm -f /tmp/bpesim-ci /tmp/bpesim-ci-*.out

echo "CI OK"
