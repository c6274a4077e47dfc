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
// and the Pop+insert eviction cycle per policy. All run at 0 allocs/op in
// steady state.

func BenchmarkPolicyTouchLRU2(b *testing.B)  { microbench.PolicyTouchLRU2(b) }
func BenchmarkPolicyTouchCFLRU(b *testing.B) { microbench.PolicyTouchCFLRU(b) }
func BenchmarkPolicyEvictLRU2(b *testing.B)  { microbench.PolicyEvictLRU2(b) }
func BenchmarkPolicyEvictCFLRU(b *testing.B) { microbench.PolicyEvictCFLRU(b) }

// The scheduler's event queue on a 2 048-pending push/pop mix (see
// internal/microbench/flat.go).
func BenchmarkSchedulerCalendar(b *testing.B) { microbench.SchedulerCalendar(b) }
