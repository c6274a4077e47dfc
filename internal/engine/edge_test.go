package engine

import (
	"errors"
	"testing"
	"time"

	"turbobp/internal/metrics"
	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
)

// TestReadRunSkipsMidRunResidents drives the §3.3.3 path where pages in
// the middle of a read-ahead batch are already resident: their stale disk
// bytes are discarded and the resident copies win.
func TestReadRunSkipsMidRunResidents(t *testing.T) {
	cfg := testConfig(ssd.NoSSD)
	cfg.PoolPages = 16
	cfg.ReadAhead = 8
	cfg.ReadAheadRamp = -1
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		// Make pages 103 and 104 resident — and DIRTY, so discarding the
		// disk versions wrongly would lose data.
		tx := e.Begin()
		e.Update(p, tx, 103, func(pl []byte) { pl[0] = 0xA3 })
		e.Update(p, tx, 104, func(pl []byte) { pl[0] = 0xA4 })
		e.Commit(p, tx)
		if err := e.Scan(p, 100, 8); err != nil {
			t.Fatal(err)
		}
		f3 := e.Pool().Peek(103)
		f4 := e.Pool().Peek(104)
		if f3 == nil || f4 == nil {
			t.Fatal("resident pages displaced by the scan")
		}
		if f3.Pg.Payload[0] != 0xA3 || f4.Pg.Payload[0] != 0xA4 {
			t.Error("scan replaced resident dirty pages with stale disk bytes")
		}
		if !f3.Dirty || !f4.Dirty {
			t.Error("dirty flags lost")
		}
	})
}

// TestErrNoFramesUnderFrameExhaustion: with more concurrent fills than
// frames, the engine reports ErrNoFrames rather than corrupting state.
func TestErrNoFramesUnderFrameExhaustion(t *testing.T) {
	cfg := testConfig(ssd.NoSSD)
	cfg.PoolPages = 2
	env, e := start(t, cfg)
	defer finish(env, e)
	sawErr := 0
	okCount := 0
	for i := 0; i < 6; i++ {
		pid := page.ID(i * 10)
		env.Go("reader", func(p *sim.Proc) {
			if _, err := e.Get(p, pid); err != nil {
				if !errors.Is(err, ErrNoFrames) {
					t.Errorf("unexpected error: %v", err)
				}
				sawErr++
				return
			}
			okCount++
		})
	}
	env.Run(time.Minute)
	e.StopBackground()
	if sawErr == 0 {
		t.Error("no ErrNoFrames despite 6 concurrent fills on 2 frames")
	}
	if okCount == 0 {
		t.Error("no fill succeeded")
	}
	// The pool must still be fully functional afterwards.
	done := false
	env.Go("after", func(p *sim.Proc) {
		if _, err := e.Get(p, 1); err != nil {
			t.Errorf("post-exhaustion read: %v", err)
		}
		done = true
	})
	env.Run(env.Now() + time.Minute)
	if !done {
		t.Fatal("post-exhaustion read never completed")
	}
}

// TestCheckpointConcurrentReDirty exercises the finishCheckpointPage LSN
// guard: a page re-dirtied while the checkpoint's write is in flight must
// stay dirty, and its newer update must survive a crash.
func TestCheckpointConcurrentReDirty(t *testing.T) {
	cfg := testConfig(ssd.NoSSD)
	env, e := start(t, cfg)
	defer finish(env, e)
	// Dirty a spread of pages (non-contiguous, forcing several runs).
	setupDone := false
	env.Go("setup", func(p *sim.Proc) {
		tx := e.Begin()
		for i := 0; i < 12; i++ {
			e.Update(p, tx, page.ID(i*5), func(pl []byte) { pl[0] = 1 })
		}
		e.Commit(p, tx)
		setupDone = true
	})
	env.Run(time.Minute)
	if !setupDone {
		t.Fatal("setup stalled")
	}

	cpDone := false
	env.Go("checkpointer", func(p *sim.Proc) {
		if err := e.Checkpoint(p); err != nil {
			t.Error(err)
		}
		cpDone = true
	})
	env.Go("mutator", func(p *sim.Proc) {
		// Interleave with the checkpoint's device writes.
		for i := 0; i < 8; i++ {
			p.Sleep(2 * time.Millisecond)
			tx := e.Begin()
			if err := e.Update(p, tx, page.ID((i%12)*5), func(pl []byte) { pl[0] = 9 }); err != nil {
				t.Error(err)
				return
			}
			e.Commit(p, tx)
		}
	})
	env.Run(env.Now() + time.Minute)
	if !cpDone {
		t.Fatal("checkpoint stalled")
	}
	// Crash and recover: the re-dirtied updates (committed) must survive.
	recovered := false
	env.Go("recover", func(p *sim.Proc) {
		e.Crash()
		if err := e.Recover(p); err != nil {
			t.Error(err)
			return
		}
		f, err := e.Get(p, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if f.Pg.Payload[0] != 9 {
			t.Errorf("page 0 = %d after recovery, want the re-dirtied 9", f.Pg.Payload[0])
		}
		recovered = true
	})
	env.Run(env.Now() + time.Minute)
	if !recovered {
		t.Fatal("recovery stalled")
	}
}

// TestScanWholeDatabase covers scans that span stripe and read-ahead
// boundaries simultaneously.
func TestScanWholeDatabase(t *testing.T) {
	cfg := testConfig(ssd.DW)
	cfg.PoolPages = 64
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		if err := e.Scan(p, 0, int(e.Config().DBPages)); err != nil {
			t.Fatal(err)
		}
	})
	if got := e.Stats().ScanPages; got != e.Config().DBPages {
		t.Errorf("ScanPages = %d, want %d", got, e.Config().DBPages)
	}
	d := *e.DiskArray().Stats()
	if d.ReadPages != e.Config().DBPages {
		t.Errorf("disk pages read = %d, want %d", d.ReadPages, e.Config().DBPages)
	}
}

// TestReadExpansionWarmup pins the Figure 8 start-up behaviour: while the
// pool has free frames, single-page reads widen to 8 pages.
func TestReadExpansionWarmup(t *testing.T) {
	cfg := testConfig(ssd.NoSSD)
	cfg.PoolPages = 64
	cfg.ReadExpansion = 8
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		e.Get(p, 100)
		d := *e.DiskArray().Stats()
		if d.ReadOps != 1 || d.ReadPages != 8 {
			t.Errorf("warm-up read = %d ops / %d pages, want 1/8", d.ReadOps, d.ReadPages)
		}
		// The expansion tail is resident and marked sequential.
		f := e.Pool().Peek(104)
		if f == nil || !f.Seq {
			t.Error("expansion tail missing or not marked sequential")
		}
		// Fill the pool; expansion must stop afterwards.
		for pid := page.ID(0); pid < 70; pid++ {
			e.Get(p, pid)
		}
		before := *e.DiskArray().Stats()
		e.Get(p, 400)
		delta := metrics.Sub(*e.DiskArray().Stats(), before)
		if delta.ReadPages != 1 {
			t.Errorf("post-warm-up read fetched %d pages, want 1", delta.ReadPages)
		}
	})
}

// TestExpansionNeverOverwritesNewerSSDVersion guards the LC interaction:
// expansion tails must not install stale disk versions of pages whose
// newest copy is on the SSD.
func TestExpansionNeverOverwritesNewerSSDVersion(t *testing.T) {
	cfg := testConfig(ssd.LC)
	cfg.PoolPages = 8
	cfg.DirtyFraction = 1.0
	cfg.ReadExpansion = 8
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		tx := e.Begin()
		e.Update(p, tx, 103, func(pl []byte) { pl[0] = 0xEE })
		e.Commit(p, tx)
		// Evict 103 (dirty) to the SSD only.
		for pid := page.ID(200); pid < 210; pid++ {
			e.Get(p, pid)
		}
		if !e.SSD().IsDirty(103) {
			t.Fatal("newest copy not on SSD")
		}
		// Crash-free pool reset so expansion can trigger again.
		for pid := page.ID(300); pid < 308; pid++ {
			e.Get(p, pid)
		}
		// A read of 100 with expansion covers 100..107; 103's stale disk
		// version must not be installed.
		e.Get(p, 100)
		if f := e.Pool().Peek(103); f != nil && f.Pg.Payload[0] != 0xEE {
			t.Error("expansion installed a stale disk version over the SSD copy")
		}
		f, err := e.Get(p, 103)
		if err != nil {
			t.Fatal(err)
		}
		if f.Pg.Payload[0] != 0xEE {
			t.Errorf("page 103 = %#x, want 0xEE", f.Pg.Payload[0])
		}
	})
}

// TestCheckpointWhileCleanerActive regresses a livelock: an LC sharp
// checkpoint's FlushDirty must not spin at a frozen virtual instant while
// the background cleaner holds the oldest dirty frame pinned mid-transfer.
func TestCheckpointWhileCleanerActive(t *testing.T) {
	cfg := testConfig(ssd.LC)
	cfg.PoolPages = 16
	cfg.SSDFrames = 256
	cfg.DirtyFraction = 0.1 // cleaner engages early and often
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		// Generate enough dirty SSD pages that the cleaner is running.
		tx := e.Begin()
		for i := 0; i < 400; i++ {
			e.Update(p, tx, page.ID(i%200), func(pl []byte) { pl[0]++ })
			if i%50 == 49 {
				e.Commit(p, tx)
				tx = e.Begin()
			}
		}
		e.Commit(p, tx)
		// Checkpoint immediately, racing the active cleaner. Before the
		// fix this froze the virtual clock forever; drive()'s deadline
		// turns that into a test failure.
		if err := e.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		if e.SSD().DirtyCount() != 0 {
			t.Errorf("%d dirty SSD pages survived the checkpoint", e.SSD().DirtyCount())
		}
	})
}
