package ssd

import (
	"runtime"
	"testing"
	"time"

	"turbobp/internal/page"
	"turbobp/internal/sim"
)

// mallocs returns the heap allocations fn makes.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestBlockingEntriesAllocateNothing pins the per-call garbage of the
// manager's operation states once its free lists are warm:
//
//   - LC: a blocking process's OnEvict and Read — each a sim.Proc.Await
//     call over the task-form body, with SSD device transfers underneath —
//     leave none.
//   - DW: a dual-write OnEvict (evictOp's concurrent SSD and disk legs)
//     and TAC's asynchronous admission (TACOnDiskRead's tacAdmitOp) each
//     spawn a task through sim.Env.Spawn, which allocates the Task and the
//     closure that starts it: 2 allocations per call, before and after the
//     operation states moved onto sim.FreeList, and the bound is that.
func TestBlockingEntriesAllocateNothing(t *testing.T) {
	const pages, rounds = 16, 64
	got := &page.Page{Payload: make([]byte, testPayload)}
	pg := mkPage(0, 0, 7)
	read := func(f *fixture, p *sim.Proc, id page.ID, lsn uint64) {
		if hit, err := f.m.Read(p, id, got); err != nil || !hit || got.LSN != lsn {
			t.Fatalf("Read(%d) = hit %v, lsn %d, err %v; want a hit at lsn %d", id, hit, got.LSN, err, lsn)
		}
	}
	stillClean := func() bool { return true }
	cases := []struct {
		name    string
		design  Design
		perCall uint64 // allocations allowed per cycle step
		step    func(f *fixture, p *sim.Proc, id page.ID, lsn uint64)
	}{
		{"LC OnEvict+Read", LC, 0, func(f *fixture, p *sim.Proc, id page.ID, lsn uint64) {
			pg.ID, pg.LSN = id, lsn
			if err := f.m.OnEvict(p, pg, true, true); err != nil {
				t.Fatal(err)
			}
			read(f, p, id, lsn)
		}},
		{"DW dual-write OnEvict", DW, 2, func(f *fixture, p *sim.Proc, id page.ID, lsn uint64) {
			pg.ID, pg.LSN = id, lsn
			if err := f.m.OnEvict(p, pg, true, true); err != nil {
				t.Fatal(err)
			}
			read(f, p, id, lsn)
			f.m.Invalidate(id) // frees the frame: the next round writes it again
		}},
		{"TAC async admission", TAC, 2, func(f *fixture, p *sim.Proc, id page.ID, lsn uint64) {
			pg.ID, pg.LSN = id, lsn
			f.m.TACOnDiskRead(pg, true, stillClean)
			p.Sleep(time.Millisecond) // the admission delay and the SSD write
			read(f, p, id, lsn)
			f.m.Invalidate(id) // logical invalidation: the next round revalidates
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(tc.design, 64, nil)
			f.disk.writes = make([]diskWrite, 0, pages*(rounds+1)) // the recorder's own growth is not the manager's
			cycle := func(p *sim.Proc, lsn uint64) {
				for id := page.ID(0); id < pages; id++ {
					tc.step(f, p, id, lsn)
				}
			}
			f.run(t, func(p *sim.Proc) {
				cycle(p, 1) // warm the frame table and free lists
				n := mallocs(func() {
					for r := uint64(0); r < rounds; r++ {
						cycle(p, 2+r)
					}
				})
				// Beyond the bound, < 1 per 32 bridged calls: tolerate runtime noise only.
				if limit := tc.perCall*pages*rounds + rounds; n > limit {
					t.Errorf("%d allocations over %d calls, want at most %d (%d per call)", n, pages*rounds, limit, tc.perCall)
				}
				t.Logf("%d allocations over %d calls", n, pages*rounds)
			})
		})
	}
}
