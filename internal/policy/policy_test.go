package policy

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestKinds exercises the Kind round-trip, the LRU-2 default and the
// refusal of every other name, the deleted policies' included.
func TestKinds(t *testing.T) {
	for _, k := range Kinds {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if k, err := ParseKind(""); err != nil || k != LRU2 {
		t.Fatalf("ParseKind(\"\") = %v, %v; want LRU2 default", k, err)
	}
	for _, name := range []string{"bogus", "arc", "tinylfu"} {
		_, err := ParseKind(name)
		if err == nil {
			t.Fatalf("ParseKind(%q) did not error", name)
		}
		if msg := err.Error(); !strings.Contains(msg, "lru2") || !strings.Contains(msg, "cflru") {
			t.Fatalf("ParseKind(%q) error %q does not name lru2 and cflru", name, msg)
		}
	}
	if LRU2 != Kind(0) {
		t.Fatal("zero Kind must be LRU2 so zero-valued configs keep the old default")
	}
}

// TestEmptyCache checks that a fresh CFLRU list tracks nothing and
// offers no victim.
func TestEmptyCache(t *testing.T) {
	p := NewCFLRU(16, nil)
	if p.Len() != 0 {
		t.Errorf("Len = %d", p.Len())
	}
	if p.Contains(1) {
		t.Error("Contains on empty list")
	}
	if _, ok := p.Pop(); ok {
		t.Error("Pop on empty list")
	}
}

// TestRemove checks that Remove forgets a key without disturbing the
// others, and that removing an absent key is a no-op.
func TestRemove(t *testing.T) {
	p := NewCFLRU(16, nil)
	p.Touch(1, ms(1))
	p.Touch(2, ms(2))
	p.Remove(1)
	if p.Contains(1) {
		t.Error("removed key still present")
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d, want 1", p.Len())
	}
	p.Remove(99) // no-op
	if p.Len() != 1 {
		t.Errorf("Len = %d after removing an absent key, want 1", p.Len())
	}
	if v, ok := p.Pop(); !ok || v != 2 {
		t.Errorf("Pop = (%d,%v), want 2", v, ok)
	}
}

// TestTouchRemoveConsistencyProperty checks that interleaved Touch/Remove
// leaves exactly the non-removed keys resident, each with its history,
// and that Pop then drains exactly that set.
func TestTouchRemoveConsistencyProperty(t *testing.T) {
	type op struct {
		Key    uint8
		At     uint16
		Remove bool
	}
	const keys = 16
	prop := func(ops []op) bool {
		p := NewCFLRU(keys, func(key int64) bool { return key%3 == 0 })
		want := map[int64]bool{}
		for _, o := range ops {
			key := int64(o.Key % keys)
			if o.Remove {
				p.Remove(key)
				delete(want, key)
			} else {
				p.Touch(key, time.Duration(o.At))
				want[key] = true
			}
		}
		if p.Len() != len(want) {
			return false
		}
		for key := int64(0); key < keys; key++ {
			if _, _, seen := p.History(key); p.Contains(key) != want[key] || seen != want[key] {
				return false
			}
		}
		for {
			key, ok := p.Pop()
			if !ok {
				break
			}
			if !want[key] {
				return false
			}
			delete(want, key)
		}
		return len(want) == 0 && p.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterminism verifies CFLRU is a pure function of its call sequence:
// two instances fed the same randomized stream, with the same dirty
// callback, agree on every victim. The LRU-2 pool's victims are checked
// against a linear scan (bufpool, TestLRU2VictimsMatchLinearScan).
func TestDeterminism(t *testing.T) {
	dirty := func(key int64) bool { return key%3 == 0 }
	a, b := NewCFLRU(32, dirty), NewCFLRU(32, dirty)
	rng := rand.New(rand.NewSource(7))
	now := time.Duration(0)
	for op := 0; op < 30000; op++ {
		key := int64(rng.Intn(100))
		now += time.Millisecond
		switch rng.Intn(5) {
		case 0, 1, 2:
			a.Touch(key, now)
			b.Touch(key, now)
		case 3:
			a.Remove(key)
			b.Remove(key)
		case 4:
			if a.Len() > 24 {
				ak, aok := a.Pop()
				bk, bok := b.Pop()
				if ak != bk || aok != bok {
					t.Fatalf("op %d: Pop diverged (%d,%v) vs (%d,%v)", op, ak, aok, bk, bok)
				}
			}
		}
	}
	if a.Stats() != b.Stats() || a.Stats().CleanFirstEvict == 0 {
		t.Fatalf("Stats = %+v vs %+v, want equal and some clean-first evictions", a.Stats(), b.Stats())
	}
}

// TestCFLRUCleanFirst checks that the eviction scan passes over an
// older dirty entry for a younger clean one and counts it.
func TestCFLRUCleanFirst(t *testing.T) {
	dirty := map[int64]bool{0: true}
	c := NewCFLRU(8, func(k int64) bool { return dirty[k] })
	for i := int64(0); i < 4; i++ {
		c.Touch(i, time.Duration(i)*time.Millisecond)
	}
	// LRU order (oldest first) is 0,1,2,3 and the window is 8/4 = 2
	// entries, so it covers dirty key 0 and clean key 1.
	if k, ok := c.Pop(); !ok || k != 1 {
		t.Fatalf("Pop = (%d,%v), want clean key 1 over dirty key 0", k, ok)
	}
	if got := c.Stats().CleanFirstEvict; got != 1 {
		t.Fatalf("CleanFirstEvict = %d, want 1", got)
	}
	// With the whole window dirty the scan falls back to the true LRU entry.
	dirty = map[int64]bool{0: true, 2: true, 3: true}
	if k, ok := c.Pop(); !ok || k != 0 {
		t.Fatalf("all-dirty Pop = (%d,%v), want LRU key 0", k, ok)
	}
}

// TestHistoryRoundTrip checks History reports what TouchHistory stored.
func TestHistoryRoundTrip(t *testing.T) {
	p := NewCFLRU(16, nil)
	p.TouchHistory(3, 5*time.Millisecond, 2*time.Millisecond)
	last, prev, seen := p.History(3)
	if !seen || last != 5*time.Millisecond || prev != 2*time.Millisecond {
		t.Fatalf("History = (%v,%v,%v)", last, prev, seen)
	}
	p.Remove(3)
	if _, _, seen := p.History(3); seen {
		t.Fatal("removed key still has history")
	}
}

// TestHotPathsAllocationFree pins the steady state the policy benchmarks
// measure: a Touch of a resident key and the Pop + insert cycle of a miss
// at capacity allocate nothing. The LRU-2 pool's are pinned in bufpool
// (TestLRU2AllocationFree).
func TestHotPathsAllocationFree(t *testing.T) {
	const capacity, keys = 1 << 10, 1 << 12
	p := NewCFLRU(capacity, func(key int64) bool { return key%3 == 0 })
	for i := int64(0); i < capacity; i++ {
		p.Touch(i, time.Duration(i))
	}
	now, key := time.Duration(capacity), int64(capacity)
	touch := func() {
		now++
		p.Touch(int64(now)%capacity, now)
	}
	evict := func() {
		now, key = now+1, (key+1)%keys
		p.Pop()
		p.Touch(key, now)
	}
	if n := testing.AllocsPerRun(1000, touch); n != 0 {
		t.Errorf("Touch of a resident key allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(1000, evict); n != 0 {
		t.Errorf("Pop + insert at capacity allocates %v per cycle", n)
	}
}
