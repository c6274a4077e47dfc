package policy_test

import (
	"testing"
	"testing/quick"
	"time"

	"turbobp/internal/bufpool"
	"turbobp/internal/page"
	"turbobp/internal/policy"
)

// The LRU2 kind has no implementation in this package: its owners keep
// it in their frame tables. These tests check its contract on the buffer
// pool's frame-indexed heap (internal/bufpool).

// TestHeapOrderProperty checks that an LRU-2 pool yields its victims in
// nondecreasing (prev, last) order, ties by page id, and returns exactly
// the pages it holds.
func TestHeapOrderProperty(t *testing.T) {
	type touch struct {
		Key  uint8
		Step uint8
	}
	const pages = 32
	prop := func(touches []touch) bool {
		p := bufpool.New(pages, 8, pages, policy.LRU2) // every page fits
		hist := map[page.ID][2]time.Duration{}         // resident page -> (prev, last)
		now := time.Duration(0)
		for _, tc := range touches {
			now += time.Duration(tc.Step) * time.Microsecond // repeats make ties
			id := page.ID(tc.Key % pages)
			if p.Lookup(id, now) != nil {
				hist[id] = [2]time.Duration{hist[id][1], now}
				continue
			}
			f := p.TakeFree()
			f.Pg.ID = id
			p.Insert(f, now)
			hist[id] = [2]time.Duration{policy.Never(), now}
		}
		if p.Resident() != len(hist) {
			return false
		}
		var prior [2]time.Duration
		priorID := page.ID(0)
		for n := 0; ; n++ {
			f := p.PopVictim()
			if f == nil {
				break
			}
			id := f.Pg.ID
			h, ok := hist[id]
			if !ok {
				return false
			}
			delete(hist, id)
			if n > 0 && (h[0] < prior[0] ||
				(h[0] == prior[0] && (h[1] < prior[1] || (h[1] == prior[1] && id < priorID)))) {
				return false
			}
			prior, priorID = h, id
			p.Release(f)
		}
		return len(hist) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapStaysBounded pins the lazy heap's size under a workload that
// removes far more than it pops and leaves every heap snapshot stale: a
// full pool whose pages are all touched again, one victim popped and the
// rest discarded by Reset, 10 000 times. Any growth of the heap would
// reallocate it, so the whole run must not allocate.
func TestHeapStaysBounded(t *testing.T) {
	const capacity = 32
	p := bufpool.New(capacity, 8, capacity, policy.LRU2)
	now := time.Duration(0)
	cycle := func() {
		for id := page.ID(0); id < capacity; id++ {
			f := p.TakeFree()
			f.Pg.ID = id
			now++
			p.Insert(f, now)
		}
		for id := page.ID(0); id < capacity; id++ {
			now++
			p.Lookup(id, now)
		}
		f := p.PopVictim()
		if f == nil {
			t.Fatal("no victim")
		}
		p.Release(f)
		p.Reset()
	}
	cycle()
	if p.Resident() != 0 || p.FreeFrames() != capacity {
		t.Fatalf("after Reset: resident %d, free %d; want 0, %d", p.Resident(), p.FreeFrames(), capacity)
	}
	n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10000; i++ {
			cycle()
		}
	})
	if n != 0 {
		t.Fatalf("10000 touch/pop/reset cycles allocated %v times; the heap grows", n)
	}
}
