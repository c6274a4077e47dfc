package microbench

import (
	"testing"
	"time"

	"turbobp/internal/bufpool"
	"turbobp/internal/page"
)

// The policy microbenchmarks measure the replacement-policy hot paths in
// isolation: a touch (every buffer-pool read records one) and the eviction
// cycle pop + insert (every miss under memory pressure), for each policy
// kind. Both policies live in the buffer pool's frame table, so each
// benchmark drives a pool: Lookup of a resident page, and PopVictim +
// Insert at capacity. Every path is allocation-free in steady state.

// policyCap is the working-set size the policy benchmarks run at, and
// policyKeys the page bound: the evict benchmarks' fresh pages cycle below
// it, so a page comes back 3*policyCap evictions after it left, absent
// again.
const (
	policyCap  = 4096
	policyKeys = 4 * policyCap
)

// fillPool returns a pool of policyCap frames over policyKeys pages under
// kind, with pages 0..policyCap-1 resident, inserted at times
// 0..policyCap-1.
func fillPool(kind bufpool.Kind) *bufpool.Pool {
	p := bufpool.New(policyCap, 8, policyKeys, kind)
	for i := 0; i < policyCap; i++ {
		f := p.TakeFree()
		f.Pg.ID = page.ID(i)
		p.Insert(f, time.Duration(i))
	}
	return p
}

// policyTouch measures the pool's Lookup of a resident page under kind.
func policyTouch(b *testing.B, kind bufpool.Kind) {
	p := fillPool(kind)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Lookup(page.ID(i%policyCap), time.Duration(policyCap+i))
	}
}

// policyEvict measures the pool's PopVictim + Insert of a fresh page at
// capacity under kind.
func policyEvict(b *testing.B, kind bufpool.Kind) {
	p := fillPool(kind)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := p.PopVictim()
		f.Pg.ID = page.ID((policyCap + i) % policyKeys)
		p.Insert(f, time.Duration(policyCap+i))
	}
}

// PolicyTouchLRU2 measures the pool's Lookup of a resident page under the
// default LRU-2 policy.
func PolicyTouchLRU2(b *testing.B) { policyTouch(b, bufpool.LRU2) }

// PolicyTouchCFLRU measures the pool's Lookup of a resident page under
// CFLRU.
func PolicyTouchCFLRU(b *testing.B) { policyTouch(b, bufpool.CFLRU) }

// PolicyEvictLRU2 measures the pool's PopVictim + Insert of a fresh page at
// capacity under LRU-2.
func PolicyEvictLRU2(b *testing.B) { policyEvict(b, bufpool.LRU2) }

// PolicyEvictCFLRU measures the pool's PopVictim + Insert of a fresh page
// at capacity under CFLRU, every page clean.
func PolicyEvictCFLRU(b *testing.B) { policyEvict(b, bufpool.CFLRU) }
