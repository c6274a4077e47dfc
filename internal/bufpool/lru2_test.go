package bufpool

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"turbobp/internal/page"
)

// fill returns an LRU-2 pool of capacity frames with the given pages
// inserted in order, page ids[i] at ms(i).
func fill(capacity int, ids ...page.ID) *Pool {
	p := New(capacity, 8, testPages, LRU2)
	for i, id := range ids {
		f := p.TakeFree()
		f.Pg.ID = id
		p.Insert(f, ms(i))
	}
	return p
}

// drain pops every victim and returns their page ids in order.
func drain(p *Pool) []page.ID {
	var out []page.ID
	for f := p.PopVictim(); f != nil; f = p.PopVictim() {
		out = append(out, f.Pg.ID)
		p.Release(f)
	}
	return out
}

func TestSingleAccessEvictedFirst(t *testing.T) {
	p := fill(4, 1)
	p.Lookup(1, ms(2)) // page 1 referenced twice
	f := p.TakeFree()
	f.Pg.ID = 2 // page 2 referenced once, later
	p.Insert(f, ms(3))
	if v := p.PopVictim(); v.Pg.ID != 2 {
		t.Errorf("victim = %d, want 2 (single-access pages evict first)", v.Pg.ID)
	}
}

func TestLRU2OrdersByPenultimate(t *testing.T) {
	p := fill(4, 1, 2)
	p.Lookup(1, ms(10)) // page 1: prev=0, last=10
	p.Lookup(2, ms(3))  // page 2: prev=1, last=3
	// Recency of last access says evict 2; LRU-2 says evict 1 (prev 0 < 1).
	if v := p.PopVictim(); v.Pg.ID != 1 {
		t.Errorf("victim = %d, want 1", v.Pg.ID)
	}
}

// TestTieBrokenByLastThenPage: single-access pages leave in order of their
// one access, and pages with equal histories in page-id order, whatever
// their frames.
func TestTieBrokenByLastThenPage(t *testing.T) {
	p := New(8, 8, testPages, LRU2)
	for _, in := range []struct {
		id page.ID
		at time.Duration
	}{{5, ms(5)}, {4, ms(4)}, {6, ms(6)}, {9, ms(7)}, {8, ms(7)}, {7, ms(7)}} {
		f := p.TakeFree()
		f.Pg.ID = in.id
		p.Insert(f, in.at)
	}
	if got, want := drain(p), []page.ID{4, 5, 6, 7, 8, 9}; !slices.Equal(got, want) {
		t.Fatalf("victims %v, want %v", got, want)
	}
}

func TestPopDrainsInOrder(t *testing.T) {
	// Pages 0..9 each touched twice; penultimate access times are 0..9,
	// and the second pass runs in reverse so the frame order disagrees.
	p := fill(10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	for i := 9; i >= 0; i-- {
		p.Lookup(page.ID(i), ms(100+i))
	}
	if got, want := drain(p), []page.ID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}; !slices.Equal(got, want) {
		t.Fatalf("victims %v, want %v", got, want)
	}
	if p.Resident() != 0 || len(p.lru2.at) != 0 {
		t.Errorf("resident %d, heap %d after drain", p.Resident(), len(p.lru2.at))
	}
}

func TestTouchExistingUpdatesOrder(t *testing.T) {
	p := fill(4, 1, 2)
	p.Lookup(1, ms(3))
	p.Lookup(1, ms(4)) // 1: prev=3; 2: prev=never
	if v := p.PopVictim(); v.Pg.ID != 2 {
		t.Errorf("victim = %d, want 2", v.Pg.ID)
	}
}

// TestFrameHistory: a frame holds its page's last two accesses; an access
// older than the last, as a striped pool's buffered read can be when it is
// replayed, only raises the penultimate.
func TestFrameHistory(t *testing.T) {
	p := fill(2, 1)
	f := p.Peek(1)
	check := func(last, prev time.Duration) {
		t.Helper()
		if f.last != last || f.prev != prev {
			t.Fatalf("history (last %v, prev %v), want (%v, %v)", f.last, f.prev, last, prev)
		}
	}
	check(0, never)
	p.Lookup(1, ms(9))
	check(ms(9), 0)
	f.touch(ms(4)) // late: between prev and last
	check(ms(9), ms(4))
	f.touch(ms(2)) // late and older than prev: no change
	check(ms(9), ms(4))
	p.Lookup(1, ms(12))
	check(ms(12), ms(9))
}

// TestLRU2VictimsMatchLinearScan drives single-latch and striped LRU-2
// pools with seeded streams of inserts (fresh pages and the Insert race
// path, where the page is already resident), lookups, latched reads,
// evictions and resets, and checks every victim against a linear scan of
// a model: each resident page's (prev, last), with a striped pool's
// latched reads held back and replayed at the next eviction in (at, id)
// order. Times repeat, so equal histories are common and the page-id
// tie-break decides. The heap never holds more than the resident frames.
func TestLRU2VictimsMatchLinearScan(t *testing.T) {
	const frames, ids = 8, 20
	type touch struct {
		id page.ID
		at time.Duration
	}
	for _, striped := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			build := New
			if striped {
				build = NewStriped
			}
			p := build(frames, 8, testPages, LRU2)
			hist := map[page.ID][2]time.Duration{} // resident page -> (prev, last)
			var pending []touch
			now := time.Duration(0)
			at := func() time.Duration { // the time the last access was recorded at
				if striped {
					return time.Duration(p.tick.Load())
				}
				return now
			}
			access := func(id page.ID, at time.Duration) {
				h := hist[id]
				switch {
				case at >= h[1]:
					hist[id] = [2]time.Duration{h[1], at}
				case at > h[0]:
					hist[id] = [2]time.Duration{at, h[1]}
				}
			}
			evict := func(op int) *Frame {
				slices.SortFunc(pending, func(a, b touch) int {
					return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.id, b.id))
				})
				for _, tc := range pending {
					if _, ok := hist[tc.id]; ok {
						access(tc.id, tc.at)
					}
				}
				pending = pending[:0]
				want, found := page.ID(0), false
				for id, h := range hist {
					w := hist[want]
					if !found || h[0] < w[0] || (h[0] == w[0] && (h[1] < w[1] || (h[1] == w[1] && id < want))) {
						want, found = id, true
					}
				}
				v := p.PopVictim()
				if (v != nil) != found || (found && v.Pg.ID != want) {
					t.Fatalf("striped %v seed %d op %d: victim %v, linear scan %d (found %v) over %v", striped, seed, op, v, want, found, hist)
				}
				delete(hist, want)
				return v
			}
			buf := make([]byte, 8)
			for op := 0; op < 3000; op++ {
				now += time.Duration(rng.Intn(2))
				id := page.ID(rng.Intn(ids))
				switch k := rng.Intn(10); {
				case k < 3: // insert: a free frame, else the victim's
					f := p.TakeFree()
					if f == nil {
						f = evict(op)
					}
					f.Pg.ID = id
					if _, inserted := p.Insert(f, now); inserted {
						hist[id] = [2]time.Duration{never, at()}
					} else {
						access(id, at())
					}
				case k < 5:
					if p.Lookup(id, now) != nil {
						access(id, at())
					}
				case k < 8:
					if _, ok := p.ReadLatched(id, buf); ok {
						pending = append(pending, touch{id, at()})
					}
				case k < 9:
					if v := evict(op); v != nil {
						p.Release(v)
					}
				case rng.Intn(20) == 0:
					p.Reset()
					clear(hist)
					pending = pending[:0]
				}
				if len(p.lru2.at) != len(hist) || p.Resident() != len(hist) {
					t.Fatalf("striped %v seed %d op %d: heap %d, resident %d, model %d", striped, seed, op, len(p.lru2.at), p.Resident(), len(hist))
				}
			}
		}
	}
}

// TestLRU2AllocationFree pins the steady state the LRU-2 policy benchmarks
// measure: the Lookup of a resident page and the PopVictim + Insert of a
// fresh page at capacity allocate nothing.
func TestLRU2AllocationFree(t *testing.T) {
	const capacity = 64
	p := New(capacity, 8, testPages, LRU2)
	now := time.Duration(0)
	for i := 0; i < capacity; i++ {
		f := p.TakeFree()
		f.Pg.ID = page.ID(i)
		p.Insert(f, now)
	}
	next := page.ID(capacity)
	lookup := func() {
		now++
		p.Lookup(page.ID(int(now)%capacity), now)
	}
	evict := func() {
		now++
		f := p.PopVictim()
		f.Pg.ID = next
		p.Insert(f, now)
		next = capacity + (next+1-capacity)%(testPages-capacity) // never a resident page
	}
	if n := testing.AllocsPerRun(1000, lookup); n != 0 {
		t.Errorf("Lookup of a resident page allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(1000, evict); n != 0 {
		t.Errorf("PopVictim + Insert at capacity allocates %v per cycle", n)
	}
}

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
		p := New(pages, 8, pages, LRU2)        // every page fits
		hist := map[page.ID][2]time.Duration{} // resident page -> (prev, last)
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
			hist[id] = [2]time.Duration{never, now}
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
