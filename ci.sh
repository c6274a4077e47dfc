#!/usr/bin/env bash
# ci.sh — the checks a change must pass before merging. Every assertion is a
# Go test, so `go test ./...` (the tier-1 verify) is the whole gate; this
# script adds the race detector and the one check too slow for a test.
#
#   ./ci.sh         # vet + race tests + fuzzing + the results_1024.txt comparison (~11 min on 2 cores)
#   ./ci.sh -short  # vet + race tests, skipping the slow ones
set -euo pipefail
cd "$(dirname "$0")"

short=""
if [[ "${1:-}" == "-short" ]]; then
  short="-short"
fi

echo "== go vet =="
go vet ./...
(cd bench && go vet ./...)

echo "== go test -race $short =="
go test -race $short ./...

if [[ -z "$short" ]]; then
  # Each fuzz target for a fixed 10 s, beyond the seed corpus `go test`
  # runs (~40 s with the builds). A failing input is saved under the
  # package's testdata/fuzz/ and fails `go test` until it is fixed.
  echo "== fuzz: 10 s per target =="
  go test -run '^$' -fuzz '^FuzzStore$' -fuzztime 10s ./internal/device
  go test -run '^$' -fuzz '^FuzzReadRequest$' -fuzztime 10s ./internal/netproto
  go test -run '^$' -fuzz '^FuzzReadResponse$' -fuzztime 10s ./internal/netproto

  # ~90 s at the default divisor: too slow for a test. ROADMAP item 5's
  # scorecard retires results_1024.txt and this step with it.
  echo "== results_1024.txt: bpesim -parallel 1 all at the default divisor vs the committed text =="
  go run ./cmd/bpesim -parallel 1 all 2>/dev/null | cmp - results_1024.txt
fi

# Code size, printed only (no gate): non-test Go lines per package, counted
# without blank and comment-only lines, as CHANGES.md entries count them.
echo "== non-test Go code lines per package =="
go list -f '{{.Dir}}' ./... | while read -r dir; do
  files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go')
  [[ -n "$files" ]] || continue
  rel="${dir#"$PWD"}"
  printf '%6d  %s\n' "$(cat $files | grep -cvE '^\s*(//|$)')" "./${rel#/}"
done

echo "CI OK"
