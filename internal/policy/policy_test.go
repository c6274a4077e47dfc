package policy

import (
	"math/rand"
	"testing"
	"time"
)

// TestKinds exercises the Kind round-trip and the factory.
func TestKinds(t *testing.T) {
	for _, k := range Kinds {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
		if New(k, 16, testKeys) == nil {
			t.Fatalf("New(%v) = nil", k)
		}
	}
	if k, err := ParseKind(""); err != nil || k != LRU2 {
		t.Fatalf("ParseKind(\"\") = %v, %v; want LRU2 default", k, err)
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind(bogus) did not error")
	}
	if LRU2 != Kind(0) {
		t.Fatal("zero Kind must be LRU2 so zero-valued configs keep the old default")
	}
}

// TestDeterminism verifies every policy is a pure function of its call
// sequence: two instances fed the same randomized stream must agree on
// every victim.
func TestDeterminism(t *testing.T) {
	for _, k := range Kinds {
		a, b := New(k, 32, testKeys), New(k, 32, testKeys)
		rng := rand.New(rand.NewSource(7))
		now := time.Duration(0)
		for op := 0; op < 30000; op++ {
			key := int64(rng.Intn(100))
			now += time.Millisecond
			switch rng.Intn(6) {
			case 0, 1, 2:
				a.Touch(key, now)
				b.Touch(key, now)
			case 3:
				a.Remove(key)
				b.Remove(key)
			case 4:
				ak, aok := a.Victim()
				bk, bok := b.Victim()
				if ak != bk || aok != bok {
					t.Fatalf("%v op %d: Victim diverged (%d,%v) vs (%d,%v)", k, op, ak, aok, bk, bok)
				}
			case 5:
				if a.Len() > 24 {
					ak, aok := a.Pop()
					bk, bok := b.Pop()
					if ak != bk || aok != bok {
						t.Fatalf("%v op %d: Pop diverged (%d,%v) vs (%d,%v)", k, op, ak, aok, bk, bok)
					}
				}
			}
		}
	}
}

// TestARCGhostAdaptation drives a recency-ghost hit and checks that the
// adaptive split moves and the hit is counted.
func TestARCGhostAdaptation(t *testing.T) {
	a := New(ARC, 4, testKeys)
	now := func(i int) time.Duration { return time.Duration(i) * time.Millisecond }
	for i := 0; i < 4; i++ {
		a.Touch(int64(i), now(i))
	}
	// Evict key 0 (T1 LRU) into the B1 ghost list...
	k, ok := a.Pop()
	if !ok || k != 0 {
		t.Fatalf("Pop = (%d,%v), want key 0", k, ok)
	}
	if a.Contains(0) {
		t.Fatal("evicted key still resident")
	}
	// ...then touch it again: a ghost hit that should raise the split.
	a.Touch(0, now(10))
	s := a.Stats()
	if s.GhostHits != 1 {
		t.Fatalf("GhostHits = %d, want 1", s.GhostHits)
	}
	if s.SplitPos < 1 {
		t.Fatalf("SplitPos = %d, want >= 1 after a B1 hit", s.SplitPos)
	}
	if !a.Contains(0) {
		t.Fatal("ghost-hit key not resident after Touch")
	}
}

// TestARCScanResistance checks the adaptive property the pool relies
// on: with a hot set under steady re-reference plus a one-pass scan,
// ARC keeps more of the hot set than plain recency order would.
func TestARCScanResistance(t *testing.T) {
	const cap = 32
	a := New(ARC, cap, testKeys)
	now := time.Duration(0)
	tick := func() time.Duration { now += time.Millisecond; return now }
	// Establish a hot set (keys 0..15) with repeated touches.
	for round := 0; round < 4; round++ {
		for k := int64(0); k < 16; k++ {
			a.Touch(k, tick())
		}
	}
	// One-pass scan of 64 cold keys; the cache holds cap entries, so
	// each insert beyond cap evicts one.
	for k := int64(100); k < 164; k++ {
		for a.Len() >= cap {
			a.Pop()
		}
		a.Touch(k, tick())
	}
	survivors := 0
	for k := int64(0); k < 16; k++ {
		if a.Contains(k) {
			survivors++
		}
	}
	if survivors < 12 {
		t.Fatalf("only %d/16 hot keys survived the scan; ARC should protect the frequency list", survivors)
	}
}

// TestCFLRUCleanFirst checks that the eviction scan passes over an
// older dirty entry for a younger clean one and counts it.
func TestCFLRUCleanFirst(t *testing.T) {
	c := New(CFLRU, 8, testKeys)
	dirty := map[int64]bool{0: true, 1: true}
	c.(DirtyAware).SetDirtyFn(func(k int64) bool { return dirty[k] })
	for i := int64(0); i < 4; i++ {
		c.Touch(i, time.Duration(i)*time.Millisecond)
	}
	// LRU order (oldest first) is 0,1,2,3; 0 and 1 are dirty, the
	// window is 8/4 = 2... widen by touching more entries so the window
	// covers the dirty pair: window is capacity/4 = 2, so make dirty
	// depth 1 to stay inside it.
	dirty = map[int64]bool{0: true}
	c.(DirtyAware).SetDirtyFn(func(k int64) bool { return dirty[k] })
	if k, ok := c.Victim(); !ok || k != 1 {
		t.Fatalf("Victim = (%d,%v), want clean key 1 over dirty key 0", k, ok)
	}
	if k, ok := c.Pop(); !ok || k != 1 {
		t.Fatalf("Pop = (%d,%v), want clean key 1", k, ok)
	}
	if got := c.Stats().CleanFirstEvict; got != 1 {
		t.Fatalf("CleanFirstEvict = %d, want 1", got)
	}
	// With everything dirty the scan falls back to the true LRU entry.
	dirty = map[int64]bool{0: true, 2: true, 3: true}
	if k, ok := c.Pop(); !ok || k != 0 {
		t.Fatalf("all-dirty Pop = (%d,%v), want LRU key 0", k, ok)
	}
}

// TestTinyLFUAdmission checks the doorkeeper/sketch gate: a first-seen
// key is refused, a repeatedly seen key is admitted, and refusals are
// counted.
func TestTinyLFUAdmission(t *testing.T) {
	p := New(TinyLFU, 64, testKeys)
	r := p.(Recorder)
	if p.Admit(42, 0) {
		t.Fatal("never-seen key admitted")
	}
	if got := p.Stats().AdmitRejects; got != 1 {
		t.Fatalf("AdmitRejects = %d, want 1", got)
	}
	r.Record(42) // doorkeeper
	r.Record(42) // sketch count 1
	if !p.Admit(42, 0) {
		t.Fatal("twice-seen key refused")
	}
}

// TestTinyLFUEviction checks frequency-informed victim choice: a hot
// key that drifted to the cold end survives over a cold neighbor.
func TestTinyLFUEviction(t *testing.T) {
	p := New(TinyLFU, 64, testKeys)
	now := time.Duration(0)
	tick := func() time.Duration { now += time.Millisecond; return now }
	// Key 1 is hot (many observations), then drifts cold.
	for i := 0; i < 10; i++ {
		p.Touch(1, tick())
	}
	// Colder keys pushed in after it, each seen once.
	for k := int64(2); k <= 5; k++ {
		p.Touch(k, tick())
	}
	// LRU order is 1 (oldest), 2, 3, 4, 5 — but 1 is the hottest, so
	// the sample scan must pick a cold key instead.
	if k, ok := p.Victim(); !ok || k == 1 {
		t.Fatalf("Victim = (%d,%v); hot key 1 should survive the sample scan", k, ok)
	}
}

// TestSketch exercises increment/estimate monotonicity and halving.
func TestSketch(t *testing.T) {
	s := NewSketch(128)
	if got := s.Estimate(7); got != 0 {
		t.Fatalf("fresh Estimate = %d, want 0", got)
	}
	for i := 0; i < 8; i++ {
		s.Increment(7)
	}
	if got := s.Estimate(7); got < 8 {
		t.Fatalf("Estimate = %d, want >= 8 (count-min never undercounts)", got)
	}
	before := s.Estimate(7)
	s.Halve()
	if got := s.Estimate(7); got != before/2 {
		t.Fatalf("post-Halve Estimate = %d, want %d", got, before/2)
	}
	// Saturation: counters cap rather than wrap.
	for i := 0; i < 600; i++ {
		s.Increment(9)
	}
	if got := s.Estimate(9); got != 255 {
		t.Fatalf("saturated Estimate = %d, want 255", got)
	}
}

// TestHistoryRoundTrip checks History on the adaptive policies reports
// what TouchHistory stored.
func TestHistoryRoundTrip(t *testing.T) {
	for _, k := range []Kind{ARC, CFLRU, TinyLFU} {
		p := New(k, 16, testKeys)
		p.TouchHistory(3, 5*time.Millisecond, 2*time.Millisecond)
		last, prev, seen := p.History(3)
		if !seen || last != 5*time.Millisecond || prev != 2*time.Millisecond {
			t.Fatalf("%v: History = (%v,%v,%v)", k, last, prev, seen)
		}
		p.Remove(3)
		if _, _, seen := p.History(3); seen {
			t.Fatalf("%v: removed key still has history", k)
		}
	}
}

// TestHotPathsAllocationFree pins the steady state the policy benchmarks
// measure: a Touch of a resident key, the Pop + insert cycle of a miss at
// capacity (once ARC's ghost lists are full), and the count-min sketch's
// Increment and Estimate allocate nothing, under every policy kind.
func TestHotPathsAllocationFree(t *testing.T) {
	const capacity = testKeys / 4
	for _, kind := range []Kind{LRU2, ARC, CFLRU, TinyLFU} {
		p := New(kind, capacity, testKeys)
		for i := int64(0); i < capacity; i++ {
			p.Touch(i, time.Duration(i))
		}
		now, key := time.Duration(capacity), int64(capacity)
		touch := func() {
			now++
			p.Touch(int64(now)%capacity, now)
		}
		evict := func() {
			// Keys cycle below the bound; one evicted 3*capacity cycles
			// ago is absent again, ghost lists included.
			now, key = now+1, (key+1)%testKeys
			p.Pop()
			p.Touch(key, now)
		}
		if n := testing.AllocsPerRun(1000, touch); n != 0 {
			t.Errorf("%v: Touch of a resident key allocates %v per call", kind, n)
		}
		for j := 0; j < 2*capacity; j++ {
			evict() // ARC's ghost lists fill over the first capacity evictions
		}
		if n := testing.AllocsPerRun(1000, evict); n != 0 {
			t.Errorf("%v: Pop + insert at capacity allocates %v per cycle", kind, n)
		}
	}
	s := NewSketch(capacity)
	var key int64
	if n := testing.AllocsPerRun(1000, func() { key++; s.Increment(key % capacity) }); n != 0 {
		t.Errorf("Sketch.Increment allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() { key++; s.Estimate(key % capacity) }); n != 0 {
		t.Errorf("Sketch.Estimate allocates %v per call", n)
	}
}
