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
	p := New(8, 32, testPages)
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
	New(0, 16, testPages)
}

func TestInsertLookup(t *testing.T) {
	p := New(4, 16, testPages)
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
	p := New(4, 16, testPages)
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
	p := New(2, 16, testPages)
	if p.TakeFree() == nil || p.TakeFree() == nil {
		t.Fatal("free frames missing")
	}
	if p.TakeFree() != nil {
		t.Error("TakeFree on empty free list returned a frame")
	}
}

func TestPopVictimLRU2Order(t *testing.T) {
	p := New(4, 16, testPages)
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
	p := New(2, 16, testPages)
	if p.PopVictim() != nil {
		t.Error("victim from empty pool")
	}
}

func TestDropReleasesFrame(t *testing.T) {
	p := New(2, 16, testPages)
	f := p.TakeFree()
	f.Pg.ID = 5
	f.Dirty = true
	p.Insert(f, ms(1))
	p.Drop(5)
	if p.Peek(5) != nil {
		t.Error("dropped page still resident")
	}
	if p.FreeFrames() != 2 {
		t.Errorf("FreeFrames = %d", p.FreeFrames())
	}
	if f.Dirty {
		t.Error("released frame still dirty")
	}
	p.Drop(99) // no-op
}

func TestDirtyPages(t *testing.T) {
	p := New(4, 16, testPages)
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
	p := New(4, 16, testPages)
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

// Property: under any interleaving of take/insert/victim/drop, frames are
// conserved: free + resident + held == capacity.
func TestFrameConservationProperty(t *testing.T) {
	type op struct {
		Kind uint8
		Page uint8
	}
	prop := func(ops []op) bool {
		const capacity = 6
		p := New(capacity, 8, testPages)
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
			case 3: // drop
				p.Drop(page.ID(o.Page % 16))
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
