package engine

import (
	"runtime"
	"testing"

	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
)

// TestBlockingEntriesAllocateNothing pins that Get, Update and Commit called
// from a blocking process — each a sim.Proc.Await call over the task-form
// access path, with the WAL flush and log-device write underneath Commit —
// leave no per-call garbage once the free lists are warm. (The log's payload
// slab and durable-record blocks allocate once per few thousand records.)
func TestBlockingEntriesAllocateNothing(t *testing.T) {
	const pages, rounds = 16, 256
	env, e := start(t, testConfig(ssd.NoSSD))
	defer finish(env, e)
	bump := func(pl []byte) { pl[0]++ }
	cycle := func(p *sim.Proc) {
		for pid := page.ID(0); pid < pages; pid++ {
			if _, err := e.Get(p, pid); err != nil {
				t.Fatal(err)
			}
			tx := e.Begin()
			if err := e.Update(p, tx, pid, bump); err != nil {
				t.Fatal(err)
			}
			if err := e.Commit(p, tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	drive(t, env, e, func(p *sim.Proc) {
		cycle(p) // bring the pages in, warm the free lists
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < rounds; r++ {
			cycle(p)
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n > rounds { // < 1 per 48 bridged calls
			t.Errorf("%d allocations over %d Get+Update+Commit rounds, want (amortized) none", n, pages*rounds)
		}
	})
}
