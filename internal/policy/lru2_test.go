package policy

import (
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestEmptyCache(t *testing.T) {
	c := NewLRU2()
	if c.Len() != 0 {
		t.Errorf("Len = %d", c.Len())
	}
	if _, ok := c.Victim(); ok {
		t.Error("Victim on empty cache")
	}
	if _, ok := c.Pop(); ok {
		t.Error("Pop on empty cache")
	}
}

func TestSingleAccessEvictedFirst(t *testing.T) {
	c := NewLRU2()
	c.Touch(1, ms(1))
	c.Touch(1, ms(2)) // key 1 referenced twice
	c.Touch(2, ms(3)) // key 2 referenced once, later
	v, ok := c.Victim()
	if !ok || v != 2 {
		t.Errorf("victim = %d, want 2 (single-access pages evict first)", v)
	}
}

func TestLRU2OrdersByPenultimate(t *testing.T) {
	c := NewLRU2()
	c.Touch(1, ms(1))
	c.Touch(2, ms(2))
	c.Touch(1, ms(10)) // key 1: prev=1, last=10
	c.Touch(2, ms(3))  // key 2: prev=2, last=3
	// Recency of last access says evict 2; LRU-2 says evict 1 (prev 1 < 2).
	v, _ := c.Victim()
	if v != 1 {
		t.Errorf("victim = %d, want 1", v)
	}
}

func TestSingleAccessTieBrokenByLast(t *testing.T) {
	c := NewLRU2()
	c.Touch(5, ms(5))
	c.Touch(4, ms(4))
	c.Touch(6, ms(6))
	order := []int64{4, 5, 6}
	for _, want := range order {
		got, ok := c.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
}

func TestRemove(t *testing.T) {
	c := NewLRU2()
	c.Touch(1, ms(1))
	c.Touch(2, ms(2))
	c.Remove(1)
	if c.Contains(1) {
		t.Error("removed key still present")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	v, _ := c.Victim()
	if v != 2 {
		t.Errorf("victim = %d, want 2", v)
	}
	c.Remove(99) // no-op
}

func TestHistory(t *testing.T) {
	c := NewLRU2()
	if _, _, seen := c.History(1); seen {
		t.Error("History of absent key")
	}
	c.Touch(1, ms(3))
	last, prev, seen := c.History(1)
	if !seen || last != ms(3) || prev != Never() {
		t.Errorf("History = (%v,%v,%v)", last, prev, seen)
	}
	c.Touch(1, ms(9))
	last, prev, _ = c.History(1)
	if last != ms(9) || prev != ms(3) {
		t.Errorf("History after second touch = (%v,%v)", last, prev)
	}
}

func TestPopDrainsInOrder(t *testing.T) {
	c := NewLRU2()
	// Keys 0..9 each touched twice; penultimate access times are 0..9.
	for i := 0; i < 10; i++ {
		c.Touch(int64(i), ms(i))
	}
	for i := 0; i < 10; i++ {
		c.Touch(int64(i), ms(100+i))
	}
	for want := int64(0); want < 10; want++ {
		got, ok := c.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after drain", c.Len())
	}
}

func TestTouchExistingUpdatesOrder(t *testing.T) {
	c := NewLRU2()
	c.Touch(1, ms(1))
	c.Touch(2, ms(2))
	c.Touch(1, ms(3))
	c.Touch(1, ms(4)) // 1: prev=3; 2: prev=never
	v, _ := c.Victim()
	if v != 2 {
		t.Errorf("victim = %d, want 2", v)
	}
}

// Property: Pop yields keys in nondecreasing (prev, last) priority order and
// returns exactly the inserted key set.
func TestHeapOrderProperty(t *testing.T) {
	type touch struct {
		Key uint8
		At  uint16
	}
	prop := func(touches []touch) bool {
		c := NewLRU2()
		want := map[int64]bool{}
		hist := map[int64][2]time.Duration{}
		for _, tc := range touches {
			k := int64(tc.Key % 32)
			at := time.Duration(tc.At) * time.Microsecond
			prevLast := hist[k]
			if !want[k] {
				hist[k] = [2]time.Duration{at, Never()}
			} else {
				hist[k] = [2]time.Duration{at, prevLast[0]}
			}
			want[k] = true
			c.Touch(k, at)
		}
		if c.Len() != len(want) {
			return false
		}
		type prio struct{ prev, last time.Duration }
		var prior *prio
		for {
			k, ok := c.Pop()
			if !ok {
				break
			}
			if !want[k] {
				return false
			}
			delete(want, k)
			h := hist[k]
			cur := prio{h[1], h[0]}
			if prior != nil {
				if cur.prev < prior.prev ||
					(cur.prev == prior.prev && cur.last < prior.last) {
					return false
				}
			}
			prior = &cur
		}
		return len(want) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved Touch/Remove leaves exactly the non-removed keys.
func TestTouchRemoveConsistencyProperty(t *testing.T) {
	type op struct {
		Key    uint8
		At     uint16
		Remove bool
	}
	prop := func(ops []op) bool {
		c := NewLRU2()
		want := map[int64]bool{}
		for _, o := range ops {
			k := int64(o.Key % 16)
			if o.Remove {
				c.Remove(k)
				delete(want, k)
			} else {
				c.Touch(k, time.Duration(o.At))
				want[k] = true
			}
		}
		if c.Len() != len(want) {
			return false
		}
		for k := range want {
			if !c.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapStaysBounded pins the lazy heap's compaction: a workload that
// removes far more than it pops (the SSD cleaner's pattern) must not
// accumulate orphaned nodes without bound.
func TestHeapStaysBounded(t *testing.T) {
	c := NewLRU2()
	for cycle := 0; cycle < 10000; cycle++ {
		for k := int64(0); k < 32; k++ {
			c.TouchHistory(k, ms(cycle), Never())
		}
		if _, ok := c.Victim(); !ok {
			t.Fatal("no victim")
		}
		for k := int64(0); k < 32; k++ {
			c.Remove(k)
		}
	}
	if len(c.heap) > 256 {
		t.Fatalf("heap holds %d nodes for %d live entries; orphans not compacted", len(c.heap), c.Len())
	}
}
