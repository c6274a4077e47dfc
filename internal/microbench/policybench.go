package microbench

import (
	"testing"
	"time"

	"turbobp/internal/bufpool"
	"turbobp/internal/page"
	"turbobp/internal/policy"
)

// The policy microbenchmarks measure the replacement-policy hot paths in
// isolation: a touch (every buffer-pool read records one) and the eviction
// cycle pop + insert (every miss under memory pressure), for each policy
// kind. LRU-2 lives in the buffer pool's frame table, so its two
// benchmarks drive a pool: Lookup of a resident page, and PopVictim +
// Insert at capacity. CFLRU's run against a policy.CFLRUList directly,
// without a dirty callback. Every path is allocation-free in steady state
// (CFLRU's entries come from its free list).

// policyCap is the working-set size the policy benchmarks run at, and
// policyKeys the key bound: PolicyEvictCFLRU's fresh keys cycle below it,
// so a key comes back 3*policyCap evictions after it left, absent again.
const (
	policyCap  = 4096
	policyKeys = 4 * policyCap
)

// fillCFLRU returns a CFLRU list holding policyCap keys.
func fillCFLRU() *policy.CFLRUList {
	p := policy.NewCFLRU(policyCap, nil)
	for i := int64(0); i < policyCap; i++ {
		p.Touch(i, time.Duration(i))
	}
	return p
}

// fillPool returns an LRU-2 pool of policyCap frames over policyKeys pages
// with pages 0..policyCap-1 resident, inserted at times 0..policyCap-1.
func fillPool() *bufpool.Pool {
	p := bufpool.New(policyCap, 8, policyKeys, policy.LRU2)
	for i := 0; i < policyCap; i++ {
		f := p.TakeFree()
		f.Pg.ID = page.ID(i)
		p.Insert(f, time.Duration(i))
	}
	return p
}

// PolicyTouchLRU2 measures the pool's Lookup of a resident page under the
// default LRU-2 policy.
func PolicyTouchLRU2(b *testing.B) {
	p := fillPool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Lookup(page.ID(i%policyCap), time.Duration(policyCap+i))
	}
}

// PolicyTouchCFLRU measures Touch on resident keys of a full CFLRU list.
func PolicyTouchCFLRU(b *testing.B) {
	p := fillCFLRU()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Touch(int64(i%policyCap), time.Duration(policyCap+i))
	}
}

// PolicyEvictLRU2 measures the pool's PopVictim + Insert of a fresh page at
// capacity under LRU-2.
func PolicyEvictLRU2(b *testing.B) {
	p := fillPool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := p.PopVictim()
		f.Pg.ID = page.ID((policyCap + i) % policyKeys)
		p.Insert(f, time.Duration(policyCap+i))
	}
}

// PolicyEvictCFLRU measures one eviction cycle of a full CFLRU list: Pop
// the victim and insert a fresh key, the steady-state work of every cache
// miss.
func PolicyEvictCFLRU(b *testing.B) {
	p := fillCFLRU()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Pop()
		p.Touch(int64((policyCap+i)%policyKeys), time.Duration(policyCap+i))
	}
}
