package bufpool

import (
	"sync"
	"sync/atomic"
	"testing"

	"turbobp/internal/page"
	"turbobp/internal/policy"
)

// TestStripedBasicOps checks that the striped pool behaves like the plain
// one for the owner-serialized operations.
func TestStripedBasicOps(t *testing.T) {
	p := NewStriped(8, 16, testPages, policy.LRU2)
	for i := 0; i < 8; i++ {
		f := p.TakeFree()
		if f == nil {
			t.Fatalf("TakeFree %d: nil", i)
		}
		f.Pg.ID = page.ID(i)
		f.Pg.Payload[0] = byte(i)
		p.Insert(f, 0)
	}
	if p.Resident() != 8 || p.FreeFrames() != 0 {
		t.Fatalf("resident=%d free=%d", p.Resident(), p.FreeFrames())
	}
	for i := 0; i < 8; i++ {
		if f := p.Lookup(page.ID(i), 0); f == nil || f.Pg.Payload[0] != byte(i) {
			t.Fatalf("Lookup(%d) = %v", i, f)
		}
	}
	if got := len(p.Pages()); got != 8 {
		t.Fatalf("Pages() = %d ids", got)
	}
	v := p.PopVictim()
	if v == nil {
		t.Fatal("PopVictim: nil")
	}
	p.Release(v)
	if p.Resident() != 7 || p.FreeFrames() != 1 {
		t.Fatalf("after pop: resident=%d free=%d", p.Resident(), p.FreeFrames())
	}
	p.Reset()
	if p.Resident() != 0 || p.FreeFrames() != 8 {
		t.Fatalf("after reset: resident=%d free=%d", p.Resident(), p.FreeFrames())
	}
}

// TestStripedReadLatched checks the copy-out fast path: hits copy the
// payload, misses report false, and buffered touches influence victim
// selection once drained.
func TestStripedReadLatched(t *testing.T) {
	p := NewStriped(4, 8, testPages, policy.LRU2)
	for i := 0; i < 4; i++ {
		f := p.TakeFree()
		f.Pg.ID = page.ID(i)
		f.Pg.Payload[0] = byte(0xA0 + i)
		p.Insert(f, 0)
	}
	buf := make([]byte, 8)
	if n, ok := p.ReadLatched(page.ID(2), buf); !ok || n != 8 || buf[0] != 0xA2 {
		t.Fatalf("ReadLatched(2) = %d,%v buf=%#x", n, ok, buf[0])
	}
	if _, ok := p.ReadLatched(page.ID(99), buf); ok {
		t.Fatal("ReadLatched(99) hit")
	}
	if _, ok := New(4, 8, testPages, policy.LRU2).ReadLatched(page.ID(2), buf); ok {
		t.Fatal("ReadLatched hit on an unstriped pool")
	}
	// Touch pages 1..3 again via the latched path; page 0's single history
	// stays oldest, so after the drain inside PopVictim it must be the
	// LRU-2 victim.
	for i := 1; i < 4; i++ {
		p.ReadLatched(page.ID(i), buf)
		p.ReadLatched(page.ID(i), buf)
	}
	v := p.PopVictim()
	if v.Pg.ID != 0 {
		t.Fatalf("victim = %d, want the untouched page 0", v.Pg.ID)
	}
	p.Release(v)
}

// TestStripedConcurrentReadersWriter runs latched readers against
// MutateFrame and residency churn; under -race this pins the latch
// protocol, and readers must never observe a torn payload (all bytes of a
// page carry the same value by construction).
func TestStripedConcurrentReadersWriter(t *testing.T) {
	const frames = 16
	p := NewStriped(frames, 32, testPages, policy.LRU2)
	for i := 0; i < frames; i++ {
		f := p.TakeFree()
		f.Pg.ID = page.ID(i)
		p.Insert(f, 0)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var torn atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, 32)
			for i := 0; !stop.Load(); i++ {
				id := page.ID((i * 7) % frames)
				if _, ok := p.ReadLatched(id, buf); !ok {
					continue
				}
				v := buf[0]
				for _, b := range buf {
					if b != v {
						torn.Add(1)
						return
					}
				}
			}
		}(r)
	}

	// The single owner (everything below is what the partition mutex would
	// serialize): payload mutations plus evict/reinsert churn.
	for i := 0; i < 3000; i++ {
		id := page.ID(i % frames)
		if f := p.Peek(id); f != nil {
			val := byte(i)
			p.MutateFrame(f, func(payload []byte) {
				for j := range payload {
					payload[j] = val
				}
			})
		}
		if i%17 == 0 {
			if v := p.PopVictim(); v != nil {
				oldID := v.Pg.ID
				p.Release(v)
				f := p.TakeFree()
				f.Pg.ID = oldID
				p.Insert(f, 0)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if torn.Load() != 0 {
		t.Fatalf("%d torn reads observed", torn.Load())
	}
}

// TestStripedLatchedReadsAllocationFree pins the latched read path's
// steady state: 32 ReadLatched hits and the PopVictim that drains their
// touches (the victim re-inserted, so the pool stays full) allocate
// nothing. With a drain that dropped each stripe's buffer and sorted with
// sort.Slice, the round allocated 80 times.
func TestStripedLatchedReadsAllocationFree(t *testing.T) {
	const frames = 64
	for _, kind := range policy.Kinds {
		p := NewStriped(frames, 8, testPages, kind)
		for i := 0; i < frames; i++ {
			f := p.TakeFree()
			f.Pg.ID = page.ID(i)
			p.Insert(f, 0)
		}
		buf := make([]byte, 8)
		var i int
		round := func() {
			for range 32 {
				i++
				p.ReadLatched(page.ID(i%frames), buf)
			}
			v := p.PopVictim()
			p.Insert(v, 0)
		}
		round() // grow the stripes' buffers
		if n := testing.AllocsPerRun(100, round); n != 0 {
			t.Errorf("%v: 32 latched reads and a drain allocate %v times", kind, n)
		}
	}
}
