#!/usr/bin/env bash
# ci.sh — the checks a change must pass before merging. Every assertion is a
# Go test, so `go test ./...` (the tier-1 verify) is the whole gate; this
# script adds the race detector and the one check too slow for a test.
#
#   ./ci.sh         # vet + race tests + the results_1024.txt comparison (~10 min on 2 cores)
#   ./ci.sh -short  # vet + race tests, skipping the slow ones
set -euo pipefail
cd "$(dirname "$0")"

short=""
if [[ "${1:-}" == "-short" ]]; then
  short="-short"
fi

echo "== go vet =="
go vet ./...

echo "== go test -race $short =="
go test -race $short ./...

if [[ -z "$short" ]]; then
  # ~90 s at the default divisor: too slow for a test. ROADMAP item 5's
  # scorecard retires results_1024.txt and this step with it.
  echo "== results_1024.txt: bpesim -parallel 1 all at the default divisor vs the committed text =="
  go run ./cmd/bpesim -parallel 1 all 2>/dev/null | cmp - results_1024.txt
fi

echo "CI OK"
