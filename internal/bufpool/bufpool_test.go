package bufpool

import (
	"testing"
	"testing/quick"
	"time"

	"turbobp/internal/page"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// testPages bounds the page ids the tests use.
const testPages = 128

func TestNewPoolGeometry(t *testing.T) {
	p := New(8, 32, testPages, LRU2)
	if p.Capacity() != 8 || p.FreeFrames() != 8 || p.Resident() != 0 {
		t.Errorf("cap=%d free=%d resident=%d", p.Capacity(), p.FreeFrames(), p.Resident())
	}
	if p.PayloadSize() != 32 {
		t.Errorf("PayloadSize = %d", p.PayloadSize())
	}
	f := p.TakeFree()
	if len(f.Pg.Payload) != 32 {
		t.Errorf("payload buffer = %d bytes", len(f.Pg.Payload))
	}
}

func TestNewPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(0, 16, testPages, LRU2)
}

func TestInsertLookup(t *testing.T) {
	p := New(4, 16, testPages, LRU2)
	f := p.TakeFree()
	f.Pg.ID = 42
	got, inserted := p.Insert(f, ms(1))
	if !inserted || got != f {
		t.Fatal("insert failed")
	}
	if p.Lookup(42, ms(2)) != f {
		t.Error("lookup missed")
	}
	if p.Lookup(43, ms(2)) != nil {
		t.Error("lookup found absent page")
	}
	if p.Resident() != 1 {
		t.Errorf("Resident = %d", p.Resident())
	}
}

func TestInsertDuplicateReturnsExisting(t *testing.T) {
	p := New(4, 16, testPages, LRU2)
	a := p.TakeFree()
	a.Pg.ID = 7
	p.Insert(a, ms(1))
	b := p.TakeFree()
	b.Pg.ID = 7
	freeBefore := p.FreeFrames()
	got, inserted := p.Insert(b, ms(2))
	if inserted || got != a {
		t.Error("duplicate insert did not return existing frame")
	}
	if p.FreeFrames() != freeBefore+1 {
		t.Error("loser frame not returned to the free list")
	}
}

func TestTakeFreeExhaustion(t *testing.T) {
	p := New(2, 16, testPages, LRU2)
	if p.TakeFree() == nil || p.TakeFree() == nil {
		t.Fatal("free frames missing")
	}
	if p.TakeFree() != nil {
		t.Error("TakeFree on empty free list returned a frame")
	}
}

func TestPopVictimLRU2Order(t *testing.T) {
	p := New(4, 16, testPages, LRU2)
	for i := page.ID(1); i <= 3; i++ {
		f := p.TakeFree()
		f.Pg.ID = i
		p.Insert(f, ms(int(i)))
	}
	p.Lookup(1, ms(10)) // page 1 now has two accesses
	v := p.PopVictim()
	if v.Pg.ID != 2 {
		t.Errorf("victim = %d, want 2 (oldest single-access)", v.Pg.ID)
	}
	if p.Peek(2) != nil {
		t.Error("victim still in table")
	}
}

func TestPopVictimEmpty(t *testing.T) {
	p := New(2, 16, testPages, LRU2)
	if p.PopVictim() != nil {
		t.Error("victim from empty pool")
	}
}

func TestReleaseClearsFrame(t *testing.T) {
	p := New(2, 16, testPages, LRU2)
	f := p.TakeFree()
	f.Pg.ID = 5
	f.Pg.LSN = 9
	f.Dirty, f.Seq, f.RecLSN = true, true, 7
	p.Insert(f, ms(1))
	if v := p.PopVictim(); v != f {
		t.Fatalf("victim = %v, want the one resident frame", v)
	}
	p.Release(f)
	if p.Peek(5) != nil {
		t.Error("released page still resident")
	}
	if p.FreeFrames() != 2 {
		t.Errorf("FreeFrames = %d", p.FreeFrames())
	}
	if f.Dirty || f.Seq || f.RecLSN != 0 || f.Pg.ID != 0 || f.Pg.LSN != 0 {
		t.Errorf("released frame keeps state: %+v", *f)
	}
}

func TestDirtyPages(t *testing.T) {
	p := New(4, 16, testPages, LRU2)
	for i := page.ID(1); i <= 3; i++ {
		f := p.TakeFree()
		f.Pg.ID = i
		f.Dirty = i%2 == 1
		p.Insert(f, ms(int(i)))
	}
	d := p.DirtyPages()
	if len(d) != 2 {
		t.Errorf("DirtyPages = %v", d)
	}
}

func TestReset(t *testing.T) {
	p := New(4, 16, testPages, LRU2)
	for i := page.ID(1); i <= 4; i++ {
		f := p.TakeFree()
		f.Pg.ID = i
		f.Dirty = true
		p.Insert(f, ms(int(i)))
	}
	p.Reset()
	if p.Resident() != 0 || p.FreeFrames() != 4 {
		t.Errorf("after reset: resident=%d free=%d", p.Resident(), p.FreeFrames())
	}
	if len(p.DirtyPages()) != 0 {
		t.Error("dirty pages survived reset")
	}
}

// Property: under any interleaving of take/insert/victim/release, frames are
// conserved: free + resident + held == capacity.
func TestFrameConservationProperty(t *testing.T) {
	type op struct {
		Kind uint8
		Page uint8
	}
	prop := func(ops []op) bool {
		const capacity = 6
		p := New(capacity, 8, testPages, LRU2)
		var held []*Frame
		now := time.Duration(0)
		for _, o := range ops {
			now += time.Millisecond
			switch o.Kind % 4 {
			case 0: // take a free frame
				if f := p.TakeFree(); f != nil {
					held = append(held, f)
				}
			case 1: // insert a held frame
				if len(held) > 0 {
					f := held[len(held)-1]
					held = held[:len(held)-1]
					f.Pg.ID = page.ID(o.Page % 16)
					p.Insert(f, now)
				}
			case 2: // evict
				if f := p.PopVictim(); f != nil {
					p.Release(f)
				}
			case 3: // release a held frame unused
				if len(held) > 0 {
					p.Release(held[len(held)-1])
					held = held[:len(held)-1]
				}
			}
			if p.FreeFrames()+p.Resident()+len(held) != capacity {
				return false
			}
		}
		// Every resident page must be findable and unique.
		seen := map[page.ID]bool{}
		for _, id := range p.Pages() {
			if seen[id] || p.Peek(id) == nil {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolAllocations pins the constructors' allocation count at the
// benchmark geometry (4 096 frames of 256 B over 65 536 pages) for every
// replacement policy: the payloads are windows of one slab and the free
// list holds frame indices. With one payload slice per frame the count was
// 4 102–4 110.
func TestPoolAllocations(t *testing.T) {
	const frames, payload, pages, maxAllocs = 4096, 256, 65536, 16
	for _, kind := range Kinds {
		for name, build := range map[string]func(int, int, int, Kind) *Pool{"New": New, "NewStriped": NewStriped} {
			var p *Pool
			if n := testing.AllocsPerRun(4, func() { p = build(frames, payload, pages, kind) }); n > maxAllocs {
				t.Errorf("%s(%v): %.0f allocations, want <= %d", name, kind, n, maxAllocs)
			}
			f := p.TakeFree()
			if len(f.Pg.Payload) != payload || cap(f.Pg.Payload) != payload {
				t.Errorf("%s(%v): payload len %d cap %d, want %d: a window may not reach its neighbour",
					name, kind, len(f.Pg.Payload), cap(f.Pg.Payload), payload)
			}
		}
	}
}

// TestHeapStaysBounded pins the replacement state's size under a workload
// that removes far more than it pops and, under LRU-2, leaves every heap
// snapshot stale: a full pool whose pages are all touched again, one
// victim popped and the rest discarded by Reset, 10 000 times, under each
// policy. The heap, free list and CFLRU links must keep their size, and a
// cycle must not allocate, so a rebuild on Reset fails too. The count is
// per cycle, as in TestLRU2AllocationFree, because testing.AllocsPerRun
// reads the process-wide malloc counter: under CPU load the runtime now
// and then makes one small allocation of its own inside a 10 000-cycle
// window. Under CFLRU this is also the allocation pin of the paths the
// CFLRU policy benchmarks measure (Lookup, PopVictim with dirty pages in
// the scan window, Insert); TestLRU2AllocationFree is LRU-2's.
func TestHeapStaysBounded(t *testing.T) {
	const capacity = 32
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			p := New(capacity, 8, capacity, kind)
			now := time.Duration(0)
			cycle := func() {
				for id := page.ID(0); id < capacity; id++ {
					f := p.TakeFree()
					f.Pg.ID = id
					f.Dirty = id%3 == 0
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
			heap, free, links := cap(p.lru2.at), cap(p.free), len(p.cflru.links)
			if n := testing.AllocsPerRun(10000, cycle); n != 0 {
				t.Fatalf("a touch/pop/reset cycle allocates %v times", n)
			}
			if cap(p.lru2.at) != heap || cap(p.free) != free || len(p.cflru.links) != links {
				t.Fatalf("heap, free list, CFLRU links: capacity %d, %d, length %d after 10000 cycles; want %d, %d, %d",
					cap(p.lru2.at), cap(p.free), len(p.cflru.links), heap, free, links)
			}
		})
	}
}
