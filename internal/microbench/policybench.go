package microbench

import (
	"testing"
	"time"

	"turbobp/internal/policy"
)

// The policy microbenchmarks measure the replacement-policy hot paths in
// isolation: Touch (every buffer-pool read goes through it) and the
// eviction cycle Pop + re-insert (every miss under memory pressure), for
// each policy kind, plus the TinyLFU count-min sketch primitives. All
// policies run these paths allocation-free in steady state (entries come
// from per-policy free lists; the sketch is two fixed arrays).

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
	p := policy.New(kind, policyCap, policyKeys)
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
	p := policy.New(kind, policyCap, policyKeys)
	fillPolicy(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Pop()
		p.Touch(int64((policyCap+i)%policyKeys), time.Duration(policyCap+i))
	}
}

// PolicyTouchLRU2 measures Touch under the default LRU-2 policy.
func PolicyTouchLRU2(b *testing.B) { policyTouch(b, policy.LRU2) }

// PolicyTouchARC measures Touch under ARC.
func PolicyTouchARC(b *testing.B) { policyTouch(b, policy.ARC) }

// PolicyTouchCFLRU measures Touch under CFLRU.
func PolicyTouchCFLRU(b *testing.B) { policyTouch(b, policy.CFLRU) }

// PolicyTouchTinyLFU measures Touch under TinyLFU (includes the sketch
// increment each access feeds).
func PolicyTouchTinyLFU(b *testing.B) { policyTouch(b, policy.TinyLFU) }

// PolicyEvictLRU2 measures the Pop+insert cycle under LRU-2.
func PolicyEvictLRU2(b *testing.B) { policyEvict(b, policy.LRU2) }

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
