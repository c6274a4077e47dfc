package ssd

import (
	"runtime"
	"testing"

	"turbobp/internal/page"
	"turbobp/internal/sim"
)

// TestBlockingEntriesAllocateNothing pins that a blocking process's
// OnEvict and Read — each a sim.Proc.Await call over the task-form body,
// with SSD device transfers underneath — leave no per-call garbage once
// the manager's free lists are warm.
func TestBlockingEntriesAllocateNothing(t *testing.T) {
	const pages, rounds = 16, 64
	f := newFixture(LC, 64, nil)
	got := &page.Page{Payload: make([]byte, testPayload)}
	pg := mkPage(0, 0, 7)
	cycle := func(p *sim.Proc, lsn uint64) {
		for id := page.ID(0); id < pages; id++ {
			pg.ID, pg.LSN = id, lsn
			if err := f.m.OnEvict(p, pg, true, true); err != nil {
				t.Fatal(err)
			}
			if hit, err := f.m.Read(p, id, got); err != nil || !hit || got.LSN != lsn {
				t.Fatalf("Read(%d) = hit %v, lsn %d, err %v; want a hit at lsn %d", id, hit, got.LSN, err, lsn)
			}
		}
	}
	f.run(t, func(p *sim.Proc) {
		cycle(p, 1) // warm the frame table and free lists
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := uint64(0); r < rounds; r++ {
			cycle(p, 2+r)
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n > rounds { // < 1 per 32 bridged calls: tolerate runtime noise only
			t.Errorf("%d allocations over %d OnEvict+Read pairs, want none", n, pages*rounds)
		}
	})
}
