// Hot-path microbenchmarks: one-line forwarders to internal/microbench, so
// `go test -bench . ./` reports them. The paper's tables and figures are
// printed by cmd/bpesim and pinned by internal/harness's TestGoldenHashes.
package turbobp

import (
	"testing"

	"turbobp/internal/microbench"
)

// Engine and SSD-manager paths: allocs/op on the steady-state read path
// must stay at ~0.

func BenchmarkGetHit(b *testing.B)       { microbench.GetHit(b) }
func BenchmarkGetMiss(b *testing.B)      { microbench.GetMiss(b) }
func BenchmarkUpdateCommit(b *testing.B) { microbench.UpdateCommit(b) }
func BenchmarkGroupClean(b *testing.B)   { microbench.GroupClean(b) }

// Cache-policy hot paths (see internal/microbench/policybench.go): Touch
// and the Pop+insert eviction cycle per policy, plus the TinyLFU sketch
// primitives. All run at 0 allocs/op in steady state.

func BenchmarkPolicyTouchLRU2(b *testing.B)    { microbench.PolicyTouchLRU2(b) }
func BenchmarkPolicyTouchARC(b *testing.B)     { microbench.PolicyTouchARC(b) }
func BenchmarkPolicyTouchCFLRU(b *testing.B)   { microbench.PolicyTouchCFLRU(b) }
func BenchmarkPolicyTouchTinyLFU(b *testing.B) { microbench.PolicyTouchTinyLFU(b) }
func BenchmarkPolicyEvictLRU2(b *testing.B)    { microbench.PolicyEvictLRU2(b) }
func BenchmarkPolicyEvictARC(b *testing.B)     { microbench.PolicyEvictARC(b) }
func BenchmarkPolicyEvictCFLRU(b *testing.B)   { microbench.PolicyEvictCFLRU(b) }
func BenchmarkPolicyEvictTinyLFU(b *testing.B) { microbench.PolicyEvictTinyLFU(b) }
func BenchmarkSketchIncrement(b *testing.B)    { microbench.SketchIncrement(b) }
func BenchmarkSketchEstimate(b *testing.B)     { microbench.SketchEstimate(b) }

// Flat-structure pairs (see internal/microbench/flat.go): the pagetab
// open-addressing table vs the Go map it replaced, and the calendar-queue
// scheduler vs the reference binary heap.

func BenchmarkTableChurn(b *testing.B)        { microbench.TableChurn(b) }
func BenchmarkMapChurn(b *testing.B)          { microbench.MapChurn(b) }
func BenchmarkSchedulerCalendar(b *testing.B) { microbench.SchedulerCalendar(b) }
func BenchmarkSchedulerHeap(b *testing.B)     { microbench.SchedulerHeap(b) }
