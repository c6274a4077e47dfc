package bufpool

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"turbobp/internal/page"
)

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

// TestPolicyStateIsPerKind: a frame stays 96 bytes, and each pool holds
// only its own policy's state.
func TestPolicyStateIsPerKind(t *testing.T) {
	if n := unsafe.Sizeof(Frame{}); n != 96 {
		t.Errorf("Frame is %d bytes, want 96", n)
	}
	if p := New(8, 8, testPages, LRU2); p.cflru.links != nil {
		t.Error("an LRU-2 pool holds CFLRU links")
	}
	if p := New(8, 8, testPages, CFLRU); p.lru2.at != nil {
		t.Error("a CFLRU pool holds an LRU-2 heap")
	}
}

// insert puts page id in a free frame of p at now, dirty or not.
func insert(t *testing.T, p *Pool, id page.ID, now time.Duration, dirty bool) {
	t.Helper()
	f := p.TakeFree()
	if f == nil {
		t.Fatalf("no free frame for page %d", id)
	}
	f.Pg.ID = id
	f.Dirty = dirty
	p.Insert(f, now)
}

// TestEmptyCache checks that a fresh CFLRU pool, and one emptied by
// Reset, holds nothing and offers no victim.
func TestEmptyCache(t *testing.T) {
	p := New(16, 8, testPages, CFLRU)
	if p.Resident() != 0 || p.PopVictim() != nil {
		t.Fatal("fresh pool: resident or victim")
	}
	insert(t, p, 1, ms(1), false)
	insert(t, p, 2, ms(2), true)
	p.Reset()
	if p.Resident() != 0 || p.PopVictim() != nil {
		t.Fatal("reset pool: resident or victim")
	}
}

// TestRemove checks that a popped victim is forgotten without disturbing
// the others' order.
func TestRemove(t *testing.T) {
	p := New(16, 8, testPages, CFLRU)
	for i := 1; i <= 3; i++ {
		insert(t, p, page.ID(i), ms(i), false)
	}
	v := p.PopVictim()
	if v == nil || v.Pg.ID != 1 {
		t.Fatalf("victim %v, want page 1", v)
	}
	p.Release(v)
	if p.Peek(1) != nil || p.Resident() != 2 {
		t.Fatalf("page 1 still resident, or resident %d, want 2", p.Resident())
	}
	if got, want := drain(p), []page.ID{2, 3}; !slices.Equal(got, want) {
		t.Fatalf("victims %v, want %v", got, want)
	}
}

// TestTouchRemoveConsistencyProperty checks that interleaved inserts,
// lookups and evictions leave exactly the expected pages resident, and
// that PopVictim then drains exactly that set.
func TestTouchRemoveConsistencyProperty(t *testing.T) {
	type op struct {
		Key   uint8
		Evict bool
	}
	const frames, keys = 8, 16
	prop := func(ops []op) bool {
		p := New(frames, 8, keys, CFLRU)
		want := map[page.ID]bool{}
		for i, o := range ops {
			id := page.ID(o.Key % keys)
			now := time.Duration(i)
			switch {
			case o.Evict:
				if v := p.PopVictim(); v != nil {
					delete(want, v.Pg.ID)
					p.Release(v)
				}
			case p.Lookup(id, now) != nil:
			default:
				f := p.TakeFree()
				if f == nil {
					if f = p.PopVictim(); f == nil {
						return false
					}
					delete(want, f.Pg.ID)
				}
				f.Pg.ID, f.Dirty = id, id%3 == 0
				p.Insert(f, now)
				want[id] = true
			}
		}
		if p.Resident() != len(want) {
			return false
		}
		for id := page.ID(0); id < keys; id++ {
			if (p.Peek(id) != nil) != want[id] {
				return false
			}
		}
		for _, id := range drain(p) {
			if !want[id] {
				return false
			}
			delete(want, id)
		}
		return len(want) == 0 && p.Resident() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterminism verifies CFLRU is a pure function of its call sequence:
// two pools fed the same randomized stream, with the same dirty pages,
// agree on every victim and count the same nonzero clean-first evictions.
func TestDeterminism(t *testing.T) {
	a, b := New(32, 8, testPages, CFLRU), New(32, 8, testPages, CFLRU)
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 30000; op++ {
		id := page.ID(rng.Intn(100))
		now := time.Duration(op) * time.Millisecond
		fa, fb := a.Lookup(id, now), b.Lookup(id, now)
		if (fa == nil) != (fb == nil) {
			t.Fatalf("op %d: page %d resident in one pool only", op, id)
		}
		if fa != nil {
			continue
		}
		fa, fb = a.TakeFree(), b.TakeFree()
		if fa == nil {
			fa, fb = a.PopVictim(), b.PopVictim()
			if fa.Pg.ID != fb.Pg.ID {
				t.Fatalf("op %d: victims %d and %d", op, fa.Pg.ID, fb.Pg.ID)
			}
		}
		fa.Pg.ID, fa.Dirty = id, id%3 == 0
		fb.Pg.ID, fb.Dirty = id, id%3 == 0
		a.Insert(fa, now)
		b.Insert(fb, now)
	}
	if a.PolicyStats() != b.PolicyStats() || a.PolicyStats().CleanFirstEvict == 0 {
		t.Fatalf("Stats = %+v vs %+v, want equal and some clean-first evictions", a.PolicyStats(), b.PolicyStats())
	}
}

// TestCFLRUCleanFirst checks that the eviction scan passes over an older
// dirty page for a younger clean one and counts it, and falls back to the
// LRU page when its window is all dirty.
func TestCFLRUCleanFirst(t *testing.T) {
	p := New(8, 8, testPages, CFLRU)
	for i := 0; i < 4; i++ {
		insert(t, p, page.ID(i), ms(i), i == 0)
	}
	// LRU order (oldest first) is 0,1,2,3 and the window is 8/4 = 2
	// frames, so it covers dirty page 0 and clean page 1.
	if v := p.PopVictim(); v.Pg.ID != 1 {
		t.Fatalf("victim %d, want clean page 1 over dirty page 0", v.Pg.ID)
	}
	if got := p.PolicyStats().CleanFirstEvict; got != 1 {
		t.Fatalf("CleanFirstEvict = %d, want 1", got)
	}
	p.Peek(2).Dirty = true
	if v := p.PopVictim(); v.Pg.ID != 0 {
		t.Fatalf("all-dirty window: victim %d, want LRU page 0", v.Pg.ID)
	}
	if got := p.PolicyStats().CleanFirstEvict; got != 1 {
		t.Fatalf("CleanFirstEvict = %d after an all-dirty pop, want 1", got)
	}
}

// TestCFLRUVictimsMatchReference drives single-latch and striped CFLRU
// pools with seeded streams of inserts (fresh pages and the Insert race
// path, where the page is already resident), lookups, latched reads,
// dirtying, evictions and resets, and checks every victim against a
// reference: the resident pages in a slice in call order, a striped pool's
// latched reads held back and replayed at the next eviction in (at, id)
// order across all stripes, and a victim found by scanning frames/4 pages
// from the cold end for the first clean one, else taking the coldest.
func TestCFLRUVictimsMatchReference(t *testing.T) {
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
			p := build(frames, 8, testPages, CFLRU)
			var order []page.ID // resident pages, coldest first
			dirty := map[page.ID]bool{}
			var pending []touch
			var cleanFirst int64
			now := time.Duration(0)
			at := func() time.Duration {
				if striped {
					return time.Duration(p.tick.Load())
				}
				return now
			}
			access := func(id page.ID) {
				i := slices.Index(order, id)
				order = append(slices.Delete(order, i, i+1), id)
			}
			evict := func(op int) *Frame {
				slices.SortFunc(pending, func(a, b touch) int {
					return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.id, b.id))
				})
				for _, tc := range pending {
					if slices.Contains(order, tc.id) {
						access(tc.id)
					}
				}
				pending = pending[:0]
				want := -1
				for i := 0; i < min(frames/4, len(order)); i++ {
					if !dirty[order[i]] {
						want = i
						break
					}
				}
				if want > 0 {
					cleanFirst++
				}
				want = max(want, 0)
				v := p.PopVictim()
				if (v != nil) != (len(order) > 0) || (v != nil && v.Pg.ID != order[want]) {
					t.Fatalf("striped %v seed %d op %d: victim %v, reference index %d of %v", striped, seed, op, v, want, order)
				}
				if v != nil {
					delete(dirty, v.Pg.ID)
					order = slices.Delete(order, want, want+1)
				}
				return v
			}
			buf := make([]byte, 8)
			for op := 0; op < 3000; op++ {
				now += time.Duration(rng.Intn(2))
				id := page.ID(rng.Intn(ids))
				switch k := rng.Intn(11); {
				case k < 3: // insert: a free frame, else the victim's
					f := p.TakeFree()
					if f == nil {
						f = evict(op)
					}
					f.Pg.ID, f.Dirty = id, false
					if _, inserted := p.Insert(f, now); inserted {
						order = append(order, id)
					} else {
						access(id)
					}
				case k < 5:
					if p.Lookup(id, now) != nil {
						access(id)
					}
				case k < 7:
					if _, ok := p.ReadLatched(id, buf); ok {
						pending = append(pending, touch{id, at()})
					}
				case k < 9: // dirty or clean a resident page, as the engine does
					if f := p.Peek(id); f != nil {
						f.Dirty = rng.Intn(2) == 0
						dirty[id] = f.Dirty
					}
				case k < 10:
					if v := evict(op); v != nil {
						p.Release(v)
					}
				case rng.Intn(20) == 0:
					p.Reset()
					order = order[:0]
					clear(dirty)
					pending = pending[:0]
				}
				if p.Resident() != len(order) {
					t.Fatalf("striped %v seed %d op %d: resident %d, reference %d", striped, seed, op, p.Resident(), len(order))
				}
			}
			if got := p.PolicyStats().CleanFirstEvict; got != cleanFirst || got == 0 {
				t.Fatalf("striped %v seed %d: CleanFirstEvict %d, reference %d (want nonzero)", striped, seed, got, cleanFirst)
			}
		}
	}
}
