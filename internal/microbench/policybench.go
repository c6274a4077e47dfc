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
// kind, plus the TinyLFU count-min sketch primitives. LRU-2 lives in the
// buffer pool's frame table, so its two benchmarks drive a pool: Lookup of
// a resident page, and PopVictim + Insert at capacity. The adaptive
// policies run against policy.Policy directly. Every path is
// allocation-free in steady state (entries come from per-policy free
// lists; the sketch is two fixed arrays).

// policyCap is the working-set size the policy benchmarks run at, and
// policyKeys the key bound: policyEvict's fresh keys cycle below it, so a
// key comes back 3*policyCap evictions after it left, absent again.
const (
	policyCap  = 4096
	policyKeys = 4 * policyCap
)

// fillPolicy populates p with policyCap keys.
func fillPolicy(p policy.Policy) {
	for i := int64(0); i < policyCap; i++ {
		p.Touch(i, time.Duration(i))
	}
}

// policyTouch measures Touch on resident keys of a full policy.
func policyTouch(b *testing.B, kind policy.Kind) {
	p := policy.New(kind, policyCap)
	fillPolicy(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Touch(int64(i%policyCap), time.Duration(policyCap+i))
	}
}

// policyEvict measures one eviction cycle at capacity: Pop the victim and
// insert a fresh key, the steady-state work of every cache miss.
func policyEvict(b *testing.B, kind policy.Kind) {
	p := policy.New(kind, policyCap)
	fillPolicy(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Pop()
		p.Touch(int64((policyCap+i)%policyKeys), time.Duration(policyCap+i))
	}
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

// PolicyTouchARC measures Touch under ARC.
func PolicyTouchARC(b *testing.B) { policyTouch(b, policy.ARC) }

// PolicyTouchCFLRU measures Touch under CFLRU.
func PolicyTouchCFLRU(b *testing.B) { policyTouch(b, policy.CFLRU) }

// PolicyTouchTinyLFU measures Touch under TinyLFU (includes the sketch
// increment each access feeds).
func PolicyTouchTinyLFU(b *testing.B) { policyTouch(b, policy.TinyLFU) }

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

// PolicyEvictARC measures the Pop+insert cycle under ARC (ghost-list
// maintenance included).
func PolicyEvictARC(b *testing.B) { policyEvict(b, policy.ARC) }

// PolicyEvictCFLRU measures the Pop+insert cycle under CFLRU (clean-first
// window scan included).
func PolicyEvictCFLRU(b *testing.B) { policyEvict(b, policy.CFLRU) }

// PolicyEvictTinyLFU measures the Pop+insert cycle under TinyLFU (coldest
// sampling over the sketch included).
func PolicyEvictTinyLFU(b *testing.B) { policyEvict(b, policy.TinyLFU) }

// SketchIncrement measures one count-min sketch increment.
func SketchIncrement(b *testing.B) {
	s := policy.NewSketch(policyCap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Increment(int64(i % policyCap))
	}
}

// SketchEstimate measures one count-min sketch frequency estimate.
func SketchEstimate(b *testing.B) {
	s := policy.NewSketch(policyCap)
	for i := int64(0); i < policyCap; i++ {
		s.Increment(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	acc := uint32(0)
	for i := 0; i < b.N; i++ {
		acc += s.Estimate(int64(i % policyCap))
	}
	sketchSink = acc
}

// sketchSink defeats dead-code elimination in SketchEstimate.
var sketchSink uint32
