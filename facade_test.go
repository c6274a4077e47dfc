package turbobp

import (
	"fmt"
	"testing"
	"time"
)

// These tests pin what running every facade operation on the caller's
// goroutine (partition.do → sim.Env.Call) must keep and what it buys: the
// file backend's background pacing, the virtual clock of each backend, the
// allocation counts of the hot operations, and a caller's panic unwinding
// without wedging the partition.

// TestFileBackendBackgroundPacing: on the file backend nothing but the
// per-operation tick moves a partition's clock, so the lazy cleaner and the
// periodic checkpointer run only if every operation pays it. A run of
// updates with no Idle must end with the SSD's dirty frames within one
// cleaner poll of λ·S and periodic checkpoints taken — the exact counts are
// those the parent commit's Run(now+1ms) stepping gives for the same loop.
// Without the tick both stay off (every SSD frame dirty, zero checkpoints)
// and no other test notices.
func TestFileBackendBackgroundPacing(t *testing.T) {
	const (
		pages     = 4096
		frames    = 512
		lambda    = 0.1
		threshold = 51 // ⌊λ·S⌋
		updates   = 4000
		// Each update dirties one SSD frame and the cleaner looks every 20 ms
		// of partition time, so a partition can be this far over at the end.
		perPoll = int(20 * time.Millisecond / fileOpTick)
	)
	for _, tc := range []struct {
		conc                  int
		checkpoints, ssdDirty int64
		diskWrites            int64
	}{
		{conc: 1, checkpoints: 8, ssdDirty: 0, diskWrites: 4000},
		{conc: 4, checkpoints: 6, ssdDirty: 60, diskWrites: 3906},
	} {
		t.Run(fmt.Sprintf("P%d", tc.conc), func(t *testing.T) {
			db := backend{"file", true, tc.conc}.open(t, Options{
				Design: LC, DBPages: pages, PoolPages: 64, SSDFrames: frames, PageSize: 64,
				DirtyFraction: lambda, CheckpointInterval: 500 * time.Millisecond,
			})
			defer db.Close()
			for i := 0; i < updates; i++ {
				pid := int64(i) * 2654435761 % pages
				if err := db.Update(pid, func(p []byte) { p[0]++ }); err != nil {
					t.Fatal(err)
				}
			}
			s := db.Stats()
			t.Logf("P=%d: SSDDirty=%d SSDOccupied=%d Checkpoints=%d DiskWrites=%d VirtualTime=%v",
				tc.conc, s.SSDDirty, s.SSDOccupied, s.Checkpoints, s.DiskWrites, s.VirtualTime)
			if limit := threshold + tc.conc*perPoll; s.SSDDirty >= limit {
				t.Errorf("SSDDirty = %d of %d frames: the lazy cleaner is not keeping it near λ·S = %d (limit %d)",
					s.SSDDirty, frames, threshold, limit)
			}
			if s.Checkpoints == 0 {
				t.Errorf("no periodic checkpoint in %d updates (CheckpointInterval 500ms, %v a tick)", updates, fileOpTick)
			}
			if s.Checkpoints != tc.checkpoints || int64(s.SSDDirty) != tc.ssdDirty || s.DiskWrites != tc.diskWrites {
				t.Errorf("Checkpoints, SSDDirty, DiskWrites = %d, %d, %d; the parent's pacing gives %d, %d, %d",
					s.Checkpoints, s.SSDDirty, s.DiskWrites, tc.checkpoints, tc.ssdDirty, tc.diskWrites)
			}
		})
	}
}

// TestVirtualClockPerBackend: the simulated backend's clock is model time —
// a pool hit costs the CPU charge of one access and Idle exactly its
// argument — and the file backend's is the operation count: one tick each.
func TestVirtualClockPerBackend(t *testing.T) {
	simDB := openTest(t, Options{Design: LC})
	buf := make([]byte, 64)
	if _, err := simDB.Read(7, buf); err != nil { // miss: brings the page in
		t.Fatal(err)
	}
	cpu := simDB.parts[0].eng.Config().CPUPerAccess
	before := simDB.Stats().VirtualTime
	if _, err := simDB.Read(7, buf); err != nil {
		t.Fatal(err)
	}
	if got := simDB.Stats().VirtualTime - before; got != cpu || cpu <= 0 {
		t.Errorf("hot Read advanced the simulated clock by %v, want CPUPerAccess = %v", got, cpu)
	}
	before = simDB.Stats().VirtualTime
	if err := simDB.Idle(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := simDB.Stats().VirtualTime - before; got != 3*time.Second {
		t.Errorf("Idle(3s) advanced the simulated clock by %v", got)
	}

	file := openTest(t, Options{Design: LC, Dir: t.TempDir()})
	before = file.Stats().VirtualTime
	if err := file.Update(7, func(p []byte) { p[0] = 1 }); err != nil {
		t.Fatal(err)
	}
	if got := file.Stats().VirtualTime - before; got != fileOpTick {
		t.Errorf("one Update advanced the file backend's clock by %v, want the tick %v", got, fileOpTick)
	}
}

// TestFacadeAllocations pins the allocation counts of the simulated
// backend's operations now that no process, goroutine or channel is made
// per operation (at the parent: 9 more on every Read, 35 per two-page Tx on
// resident pages). The facade adds nothing to what the layers below it
// allocate: nothing on a pool hit or an SSD hit, and on a disk read only
// device.Array's per-request closure.
func TestFacadeAllocations(t *testing.T) {
	const pages = 4096
	db := openTest(t, Options{Design: LC, DBPages: pages, PoolPages: 64, SSDFrames: 256})
	buf := make([]byte, 64)
	read := func(pid int64) {
		if _, err := db.Read(pid, buf); err != nil {
			t.Fatal(err)
		}
	}
	stamp := func(p []byte) { p[0]++ }
	hotTx := func() {
		x := db.Begin()
		x.Update(1, stamp)
		x.Update(2, stamp)
		if err := x.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	hotTx()
	if n := testing.AllocsPerRun(200, func() { read(1) }); n != 0 {
		t.Errorf("Read, pool hit: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, hotTx); n > 16 {
		t.Errorf("two-page Tx on resident pages: %v allocs/op, want <= 16", n)
	}

	// Pool misses in steady state: cycle over a set larger than the pool.
	// Within the SSD's size it is served from the SSD once admitted; over
	// the whole database, mostly from the disk.
	next := int64(0)
	cycle := func(set, warm int) func() {
		step := func() { read(next % int64(set)); next++ }
		for i := 0; i < warm; i++ {
			step()
		}
		return step
	}
	ssdHit := cycle(200, 1000)
	before := db.Stats()
	if n := testing.AllocsPerRun(400, ssdHit); n != 0 {
		t.Errorf("Read, SSD hit: %v allocs/op, want 0", n)
	}
	if s := db.Stats(); s.SSDHits-before.SSDHits < 200 || s.PoolMisses-before.PoolMisses < 200 {
		t.Fatalf("the SSD-hit loop made %d pool misses and %d SSD hits, want most of the 400 reads",
			s.PoolMisses-before.PoolMisses, s.SSDHits-before.SSDHits)
	}
	if n := testing.AllocsPerRun(400, cycle(pages, 2*pages)); n > 1 {
		t.Errorf("Read, disk: %v allocs/op, want <= 1", n)
	}
}

// TestCallerPanicReleasesPartition: a mutation or a Scan callback is the
// caller's code and runs on the caller's goroutine, so its panic unwinds
// the caller — and must leave the partition mutex free and the partition's
// environment callable, on every backend.
func TestCallerPanicReleasesPartition(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			db := b.open(t, Options{Design: LC, DBPages: 64, PoolPages: 16, SSDFrames: 32, PageSize: 64})
			defer db.Close()
			mustPanic := func(what string, fn func()) {
				t.Helper()
				defer func() {
					if r := recover(); r != "boom" {
						t.Fatalf("%s: recovered %v, want the caller's own panic", what, r)
					}
				}()
				fn()
			}
			mustPanic("Update", func() { db.Update(3, func([]byte) { panic("boom") }) })
			mustPanic("Tx.Commit", func() {
				x := db.Begin()
				x.Update(4, func([]byte) { panic("boom") })
				x.Commit()
			})
			mustPanic("Scan", func() {
				db.Scan(0, 8, func(int64, []byte) error { panic("boom") })
			})
			// Other pages of the same partitions are served as before.
			done := make(chan error, 1)
			go func() {
				err := db.Update(5, func(p []byte) { p[0] = 9 })
				if err == nil {
					_, err = db.Read(6, make([]byte, 64))
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("partition still locked after the caller's panic unwound")
			}
		})
	}
}
