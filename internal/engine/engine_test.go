package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"turbobp/internal/bufpool"
	"turbobp/internal/device"
	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
	"turbobp/internal/wal"
)

func testConfig(design ssd.Design) Config {
	return Config{
		Design:        design,
		DBPages:       512,
		PoolPages:     32,
		SSDFrames:     64,
		PayloadSize:   32,
		Partitions:    4,
		Throttle:      1 << 30, // effectively off for unit tests
		ReadExpansion: -1,      // exact I/O counts matter in these tests
	}
}

// start builds an engine and formats its database.
func start(t *testing.T, cfg Config) (*sim.Env, *Engine) {
	t.Helper()
	env := sim.NewEnv()
	e := New(env, cfg)
	if err := e.FormatDB(); err != nil {
		t.Fatal(err)
	}
	return env, e
}

// drive runs fn as a process and advances the simulation until it finishes
// (bounded by an hour of virtual time), then stops background processes.
func drive(t *testing.T, env *sim.Env, e *Engine, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	env.Go("test", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	deadline := env.Now() + time.Hour
	for !done && env.Now() < deadline {
		env.Run(env.Now() + 100*time.Millisecond)
	}
	if !done {
		t.Fatal("test process did not finish within an hour of virtual time")
	}
	e.StopBackground()
}

func finish(env *sim.Env, e *Engine) {
	e.StopBackground()
	env.Run(env.Now() + time.Second)
	env.Shutdown()
}

func TestGetReadsFormattedPage(t *testing.T) {
	env, e := start(t, testConfig(ssd.NoSSD))
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		f, err := e.Get(p, 37)
		if err != nil {
			t.Fatal(err)
		}
		if f.Pg.ID != 37 || f.Pg.LSN != 0 {
			t.Errorf("page = id %d lsn %d", f.Pg.ID, f.Pg.LSN)
		}
		if !page.Blank(f.Pg.Payload) {
			t.Error("fresh page payload not zero")
		}
	})
	s := e.Stats()
	if s.Reads != 1 || s.PoolMisses != 1 || s.PoolHits != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSecondGetIsPoolHit(t *testing.T) {
	env, e := start(t, testConfig(ssd.NoSSD))
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		e.Get(p, 5)
		before := e.DiskArray().Stats().Load().ReadOps
		e.Get(p, 5)
		if got := e.DiskArray().Stats().Load().ReadOps; got != before {
			t.Error("pool hit went to disk")
		}
	})
	if e.Stats().PoolHits != 1 {
		t.Errorf("PoolHits = %d", e.Stats().PoolHits)
	}
}

func TestUpdateCommitDurability(t *testing.T) {
	env, e := start(t, testConfig(ssd.NoSSD))
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		tx := e.Begin()
		if err := e.Update(p, tx, 9, func(pl []byte) { pl[0] = 0xAB }); err != nil {
			t.Fatal(err)
		}
		if e.Log().FlushedLSN() != 0 {
			t.Error("log flushed before commit")
		}
		if err := e.Commit(p, tx); err != nil {
			t.Fatal(err)
		}
		if e.Log().FlushedLSN() == 0 {
			t.Error("commit did not force the log")
		}
	})
	if e.Stats().Updates != 1 || e.Stats().Commits != 1 {
		t.Errorf("stats = %+v", e.Stats())
	}
}

func TestEvictionWritesDirtyPageToDisk(t *testing.T) {
	cfg := testConfig(ssd.NoSSD)
	cfg.PoolPages = 4
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		tx := e.Begin()
		e.Update(p, tx, 1, func(pl []byte) { pl[0] = 0x77 })
		e.Commit(p, tx)
		// Push page 1 out with other pages.
		for pid := page.ID(10); pid < 20; pid++ {
			e.Get(p, pid)
		}
		if e.Pool().Peek(1) != nil {
			t.Fatal("page 1 still resident; pool too big for the test")
		}
		// Re-read: the dirty write must have made it to disk.
		f, err := e.Get(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if f.Pg.Payload[0] != 0x77 {
			t.Error("update lost across eviction")
		}
	})
	if e.Stats().DirtyEvicts != 1 {
		t.Errorf("DirtyEvicts = %d", e.Stats().DirtyEvicts)
	}
}

func TestWALFlushedBeforeDirtyPageWrite(t *testing.T) {
	cfg := testConfig(ssd.LC)
	cfg.PoolPages = 4
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		tx := e.Begin()
		e.Update(p, tx, 1, func(pl []byte) { pl[0] = 1 })
		lsn := e.Log().NextLSN() - 1
		// No commit. Evict page 1 by pressure: WAL must be forced first.
		for pid := page.ID(10); pid < 20; pid++ {
			e.Get(p, pid)
		}
		if e.Log().FlushedLSN() < lsn {
			t.Error("dirty page written without forcing its log records")
		}
	})
}

func TestSSDHitAfterEviction(t *testing.T) {
	for _, design := range []ssd.Design{ssd.CW, ssd.DW, ssd.LC} {
		t.Run(design.String(), func(t *testing.T) {
			cfg := testConfig(design)
			cfg.PoolPages = 4
			env, e := start(t, cfg)
			defer finish(env, e)
			drive(t, env, e, func(p *sim.Proc) {
				e.Get(p, 1) // random read; clean
				for pid := page.ID(10); pid < 20; pid++ {
					e.Get(p, pid)
				}
				if !e.SSD().Contains(1) {
					t.Fatal("evicted clean random page not cached in SSD")
				}
				hitsBefore := e.SSD().Stats().Hits
				e.Get(p, 1)
				if e.SSD().Stats().Hits != hitsBefore+1 {
					t.Error("re-read not served from SSD")
				}
			})
		})
	}
}

// TestMissLatencyTierPerAccess runs two concurrent point reads: one of a
// page the SSD holds, one of a page only the disk holds. Each files its
// latency under its own tier, however the SSD hit interleaves with the
// disk read's wait.
func TestMissLatencyTierPerAccess(t *testing.T) {
	cfg := testConfig(ssd.DW)
	cfg.PoolPages = 4
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		e.Get(p, 1)
		for pid := page.ID(10); pid < 20; pid++ {
			e.Get(p, pid)
		}
		if !e.SSD().Contains(1) || e.SSD().Contains(300) {
			t.Fatal("want page 1 on the SSD and page 300 only on disk")
		}
		lat := e.Latencies()
		ssdBefore, diskBefore := lat.SSDHit.Count(), lat.DiskRead.Count()
		left := 2
		both := sim.NewSignal(env)
		for _, pid := range []page.ID{300, 1} {
			env.Spawn("get", func(tk *sim.Task) {
				e.GetTask(tk, pid, func(_ *bufpool.Frame, err error) {
					if err != nil {
						t.Errorf("get %d: %v", pid, err)
					}
					if left--; left == 0 {
						both.Broadcast()
					}
				})
			})
		}
		both.Wait(p)
		if got := lat.SSDHit.Count() - ssdBefore; got != 1 {
			t.Errorf("SSD-hit latencies +%d, want +1", got)
		}
		if got := lat.DiskRead.Count() - diskBefore; got != 1 {
			t.Errorf("disk-read latencies +%d, want +1", got)
		}
	})
}

func TestUpdateInvalidatesSSDCopy(t *testing.T) {
	cfg := testConfig(ssd.DW)
	cfg.PoolPages = 4
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		e.Get(p, 1)
		for pid := page.ID(10); pid < 20; pid++ {
			e.Get(p, pid)
		}
		if !e.SSD().Contains(1) {
			t.Fatal("page 1 not in SSD")
		}
		tx := e.Begin()
		e.Update(p, tx, 1, func(pl []byte) { pl[0] = 1 })
		if e.SSD().Contains(1) {
			t.Error("SSD copy survived the update")
		}
	})
}

func TestLCDirtyEvictionAvoidsDisk(t *testing.T) {
	cfg := testConfig(ssd.LC)
	cfg.PoolPages = 4
	cfg.DirtyFraction = 1.0
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		tx := e.Begin()
		e.Update(p, tx, 1, func(pl []byte) { pl[0] = 0x5C })
		e.Commit(p, tx)
		writesBefore := e.DiskArray().Stats().Load().WriteOps
		for pid := page.ID(10); pid < 20; pid++ {
			e.Get(p, pid)
		}
		if got := e.DiskArray().Stats().Load().WriteOps; got != writesBefore {
			t.Errorf("LC eviction reached the disks (%d writes)", got-writesBefore)
		}
		if !e.SSD().IsDirty(1) {
			t.Fatal("dirty page not in SSD")
		}
		f, err := e.Get(p, 1) // must come back from the SSD, newest version
		if err != nil {
			t.Fatal(err)
		}
		if f.Pg.Payload[0] != 0x5C {
			t.Error("stale version read back")
		}
	})
}

func TestScanUsesMultiPageIO(t *testing.T) {
	cfg := testConfig(ssd.NoSSD)
	cfg.ReadAhead = 16
	cfg.ReadAheadRamp = 4
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		if err := e.Scan(p, 100, 36); err != nil {
			t.Fatal(err)
		}
	})
	s := e.DiskArray().Stats().Load()
	// 4 ramp singles + 2 batches of 16.
	if s.ReadOps != 6 {
		t.Errorf("disk read ops = %d, want 6", s.ReadOps)
	}
	if s.ReadPages != 36 {
		t.Errorf("disk pages read = %d, want 36", s.ReadPages)
	}
	if e.Stats().ScanPages != 36 {
		t.Errorf("ScanPages = %d", e.Stats().ScanPages)
	}
}

func TestScannedPagesNotAdmittedToSSD(t *testing.T) {
	cfg := testConfig(ssd.DW)
	cfg.PoolPages = 8
	cfg.FillThreshold = 0.01 // skip aggressive filling
	cfg.ReadAheadRamp = -1
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		e.Scan(p, 100, 32)
		// Push everything out.
		for pid := page.ID(0); pid < 16; pid++ {
			e.Get(p, pid)
		}
		for pid := page.ID(100); pid < 132; pid++ {
			if e.SSD().Contains(pid) {
				t.Fatalf("sequentially-read page %d admitted to SSD", pid)
			}
		}
	})
}

func TestMultiPageReadTrimsSSDPages(t *testing.T) {
	cfg := testConfig(ssd.DW)
	cfg.PoolPages = 16
	cfg.ReadAhead = 8
	cfg.ReadAheadRamp = -1
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		// Get pages 100 and 107 (random), evict them into the SSD.
		e.Get(p, 100)
		e.Get(p, 107)
		for pid := page.ID(0); pid < 16; pid++ {
			e.Get(p, pid)
		}
		if !e.SSD().Contains(100) || !e.SSD().Contains(107) {
			t.Fatal("edge pages not in SSD")
		}
		// Flush the pool again so the scan misses everywhere.
		for pid := page.ID(20); pid < 36; pid++ {
			e.Get(p, pid)
		}
		readsBefore := e.DiskArray().Stats().Load()
		if err := e.Scan(p, 100, 8); err != nil {
			t.Fatal(err)
		}
		d := e.DiskArray().Stats().Load().Sub(readsBefore)
		// Pages 100 and 107 are the leading/trailing SSD pages: trimmed.
		// The disk sees one 6-page read (101..106).
		if d.ReadOps != 1 || d.ReadPages != 6 {
			t.Errorf("disk saw %d ops / %d pages, want 1 op / 6 pages", d.ReadOps, d.ReadPages)
		}
	})
}

func TestMiddleDirtySSDPageWinsOverDiskVersion(t *testing.T) {
	cfg := testConfig(ssd.LC)
	cfg.PoolPages = 16
	cfg.ReadAhead = 8
	cfg.ReadAheadRamp = -1
	cfg.DirtyFraction = 1.0
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		// Dirty page 103 and evict it into the SSD (newest copy on SSD).
		tx := e.Begin()
		e.Update(p, tx, 103, func(pl []byte) { pl[0] = 0xFE })
		e.Commit(p, tx)
		for pid := page.ID(0); pid < 16; pid++ {
			e.Get(p, pid)
		}
		if !e.SSD().IsDirty(103) {
			t.Fatal("dirty copy not on SSD")
		}
		// Scan across it; middle page read from disk would be stale.
		if err := e.Scan(p, 100, 8); err != nil {
			t.Fatal(err)
		}
		f := e.Pool().Peek(103)
		if f == nil {
			t.Fatal("page 103 not resident after scan")
		}
		if f.Pg.Payload[0] != 0xFE {
			t.Error("scan returned the stale disk version of a dirty SSD page")
		}
	})
}

func TestCheckpointFlushesPoolDirtyPages(t *testing.T) {
	env, e := start(t, testConfig(ssd.NoSSD))
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		tx := e.Begin()
		for pid := page.ID(0); pid < 10; pid++ {
			e.Update(p, tx, pid, func(pl []byte) { pl[0] = byte(pid) })
		}
		e.Commit(p, tx)
		if err := e.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		if n := len(e.Pool().DirtyPages()); n != 0 {
			t.Errorf("%d dirty pages after checkpoint", n)
		}
		if _, ok := e.Log().LastCheckpoint(); !ok {
			t.Error("no checkpoint record logged")
		}
	})
	// Pages 0..9 are contiguous: the checkpoint should write them in one
	// grouped I/O.
	if w := e.DiskArray().Stats().Load().WriteOps; w != 1 {
		t.Errorf("checkpoint used %d write ops, want 1 grouped write", w)
	}
}

func TestCheckpointLCFlushesSSDDirty(t *testing.T) {
	cfg := testConfig(ssd.LC)
	cfg.PoolPages = 4
	cfg.DirtyFraction = 1.0
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		tx := e.Begin()
		e.Update(p, tx, 1, func(pl []byte) { pl[0] = 1 })
		e.Commit(p, tx)
		for pid := page.ID(10); pid < 20; pid++ {
			e.Get(p, pid)
		}
		if e.SSD().DirtyCount() == 0 {
			t.Fatal("no dirty SSD pages before checkpoint")
		}
		if err := e.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		if e.SSD().DirtyCount() != 0 {
			t.Errorf("LC checkpoint left %d dirty SSD pages", e.SSD().DirtyCount())
		}
	})
}

func TestPeriodicCheckpointer(t *testing.T) {
	cfg := testConfig(ssd.NoSSD)
	cfg.CheckpointInterval = 50 * time.Millisecond
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		tx := e.Begin()
		e.Update(p, tx, 3, func(pl []byte) { pl[0] = 3 })
		e.Commit(p, tx)
		p.Sleep(200 * time.Millisecond)
	})
	if e.Stats().Checkpoints < 2 {
		t.Errorf("Checkpoints = %d, want >= 2", e.Stats().Checkpoints)
	}
}

// TestCheckpointRedoPointStaysBehindLiveTx pins the live-transaction rule
// for both checkpoint kinds: with CommitRecords, a checkpoint taken while a
// transaction is open records a redo point below that transaction's first
// record, and the point moves on once Commit or Forget ends it.
func TestCheckpointRedoPointStaysBehindLiveTx(t *testing.T) {
	for _, fuzzy := range []bool{false, true} {
		cfg := testConfig(ssd.NoSSD)
		cfg.CommitRecords, cfg.FuzzyCheckpoints = true, fuzzy
		env, e := start(t, cfg)
		redoPoint := func(p *sim.Proc) uint64 {
			t.Helper()
			if err := e.Checkpoint(p); err != nil {
				t.Fatal(err)
			}
			cp, _ := e.Log().LastCheckpoint()
			return cp.StartLSN
		}
		drive(t, env, e, func(p *sim.Proc) {
			tx := e.Begin()
			first := e.Log().NextLSN()
			e.LogUndo(4, tx, make([]byte, cfg.PayloadSize))
			e.Update(p, tx, 4, func(pl []byte) { pl[0] = 0xBB })
			if got := redoPoint(p); got >= first {
				t.Errorf("fuzzy=%v: redo point %d inside an open transaction, want < its first record %d", fuzzy, got, first)
			}
			if err := e.Commit(p, tx); err != nil {
				t.Fatal(err)
			}
			if got := redoPoint(p); got < first {
				t.Errorf("fuzzy=%v: redo point %d still held after Commit", fuzzy, got)
			}
			tx2 := e.Begin()
			e.Forget(tx2)
			if got, want := redoPoint(p), e.Log().NextLSN()-2; !fuzzy && got != want {
				t.Errorf("redo point %d after Forget, want %d", got, want)
			}
		})
		finish(env, e)
	}
}

func TestCrashLosesUncommitted(t *testing.T) {
	env, e := start(t, testConfig(ssd.NoSSD))
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		tx := e.Begin()
		e.Update(p, tx, 5, func(pl []byte) { pl[0] = 0x11 })
		e.Commit(p, tx)
		tx2 := e.Begin()
		e.Update(p, tx2, 5, func(pl []byte) { pl[0] = 0x22 }) // never committed
		e.Crash()
		if err := e.Recover(p); err != nil {
			t.Fatal(err)
		}
		f, err := e.Get(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		if f.Pg.Payload[0] != 0x11 {
			t.Errorf("payload = %#x, want committed 0x11", f.Pg.Payload[0])
		}
	})
}

// shadowHistory mirrors the WAL to compute the expected post-recovery state.
type shadowHistory struct {
	recs []shadowRec
}

type shadowRec struct {
	lsn     uint64
	pid     page.ID
	payload []byte
}

func (s *shadowHistory) note(lsn uint64, pid page.ID, payload []byte) {
	s.recs = append(s.recs, shadowRec{lsn, pid, append([]byte(nil), payload...)})
}

// expect returns the expected page payloads after recovery with the durable
// LSN horizon.
func (s *shadowHistory) expect(durable uint64, payloadSize int) map[page.ID][]byte {
	m := map[page.ID][]byte{}
	for _, r := range s.recs {
		if r.lsn <= durable {
			m[r.pid] = r.payload
		}
	}
	for pid, pl := range m {
		if len(pl) != payloadSize {
			t := make([]byte, payloadSize)
			copy(t, pl)
			m[pid] = t
		}
	}
	return m
}

// TestCrashRecoveryShadowModel runs a random committed workload against
// every design, crashes at a random point, recovers, and verifies every
// page byte-for-byte against the durable shadow state.
func TestCrashRecoveryShadowModel(t *testing.T) {
	for _, design := range []ssd.Design{ssd.NoSSD, ssd.CW, ssd.DW, ssd.LC, ssd.TAC} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", design, seed), func(t *testing.T) {
				cfg := testConfig(design)
				cfg.PoolPages = 8
				cfg.SSDFrames = 24
				cfg.DirtyFraction = 0.5
				env, e := start(t, cfg)
				defer finish(env, e)
				rng := rand.New(rand.NewSource(seed))
				shadow := &shadowHistory{}
				drive(t, env, e, func(p *sim.Proc) {
					for i := 0; i < 300; i++ {
						tx := e.Begin()
						for j := 0; j < 3; j++ {
							pid := page.ID(rng.Intn(100))
							if rng.Intn(2) == 0 {
								v := byte(rng.Intn(256))
								if err := e.Update(p, tx, pid, func(pl []byte) { pl[0] = v; pl[1]++ }); err != nil {
									t.Fatal(err)
								}
								f := e.Pool().Peek(pid)
								shadow.note(f.Pg.LSN, pid, f.Pg.Payload)
							} else if _, err := e.Get(p, pid); err != nil {
								t.Fatal(err)
							}
						}
						if rng.Intn(4) != 0 { // 75% of transactions commit
							e.Commit(p, tx)
						}
						if i == 150 {
							if err := e.Checkpoint(p); err != nil {
								t.Fatal(err)
							}
						}
					}
					durable := e.Log().FlushedLSN()
					e.Crash()
					if err := e.Recover(p); err != nil {
						t.Fatal(err)
					}
					want := shadow.expect(durable, cfg.PayloadSize)
					for pid := page.ID(0); pid < 100; pid++ {
						f, err := e.Get(p, pid)
						if err != nil {
							t.Fatal(err)
						}
						exp, ok := want[pid]
						if !ok {
							exp = make([]byte, cfg.PayloadSize)
						}
						if !bytes.Equal(f.Pg.Payload, exp) {
							t.Errorf("page %d: got %x..., want %x...", pid, f.Pg.Payload[:4], exp[:4])
						}
					}
				})
			})
		}
	}
}

// TestPageCopyStateInvariants verifies the Figure 3 relationships: clean
// SSD copies always equal the disk version; dirty SSD copies (LC only) are
// strictly newer; CW/DW/TAC never hold dirty SSD copies.
func TestPageCopyStateInvariants(t *testing.T) {
	for _, design := range []ssd.Design{ssd.CW, ssd.DW, ssd.LC, ssd.TAC} {
		t.Run(design.String(), func(t *testing.T) {
			cfg := testConfig(design)
			cfg.PoolPages = 8
			cfg.SSDFrames = 32
			cfg.DirtyFraction = 0.8
			env, e := start(t, cfg)
			defer finish(env, e)
			rng := rand.New(rand.NewSource(7))
			drive(t, env, e, func(p *sim.Proc) {
				for i := 0; i < 500; i++ {
					pid := page.ID(rng.Intn(128))
					tx := e.Begin()
					if rng.Intn(3) == 0 {
						e.Update(p, tx, pid, func(pl []byte) { pl[0]++ })
						e.Commit(p, tx)
					} else {
						e.Get(p, pid)
					}
					if i%50 == 0 {
						checkCopyStates(t, p, e, design)
					}
				}
				checkCopyStates(t, p, e, design)
			})
		})
	}
}

// checkCopyStates compares SSD and disk versions of every SSD-cached page.
func checkCopyStates(t *testing.T, p *sim.Proc, e *Engine, design ssd.Design) {
	t.Helper()
	for pid := page.ID(0); pid < page.ID(e.Config().DBPages); pid++ {
		if !e.SSD().Contains(pid) {
			continue
		}
		ssdPg := page.Page{Payload: make([]byte, e.Config().PayloadSize)}
		hit, err := e.SSD().Read(p, pid, &ssdPg)
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			continue
		}
		buf := make([]byte, e.bufSize())
		if err := e.DiskArray().Read(p, device.PageNum(pid), [][]byte{buf}); err != nil {
			t.Fatal(err)
		}
		var diskPg page.Page
		if err := page.Decode(buf, &diskPg); err != nil {
			t.Fatal(err)
		}
		dirty := e.SSD().IsDirty(pid)
		switch {
		case dirty && design != ssd.LC:
			t.Errorf("%s: page %d dirty in SSD (cases 4/6 are LC-only)", design, pid)
		case dirty && ssdPg.LSN <= diskPg.LSN:
			t.Errorf("page %d: dirty SSD copy lsn %d not newer than disk %d", pid, ssdPg.LSN, diskPg.LSN)
		case !dirty && ssdPg.LSN != diskPg.LSN:
			t.Errorf("page %d: clean SSD copy lsn %d != disk %d", pid, ssdPg.LSN, diskPg.LSN)
		}
	}
}

func TestRecoveryCountsRedo(t *testing.T) {
	env, e := start(t, testConfig(ssd.NoSSD))
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		tx := e.Begin()
		for pid := page.ID(0); pid < 5; pid++ {
			e.Update(p, tx, pid, func(pl []byte) { pl[0] = 9 })
		}
		e.Commit(p, tx)
		e.Checkpoint(p) // pages on disk; redo should skip them
		tx2 := e.Begin()
		e.Update(p, tx2, 7, func(pl []byte) { pl[0] = 9 })
		e.Commit(p, tx2)
		e.Crash()
		if err := e.Recover(p); err != nil {
			t.Fatal(err)
		}
	})
	s := e.Stats()
	if s.RedoApplied != 1 {
		t.Errorf("RedoApplied = %d, want 1 (only the post-checkpoint update)", s.RedoApplied)
	}
}

func TestDistanceClassifierLabels(t *testing.T) {
	c := newClassifier(ClassifyDistance)
	if c.label(100, false) {
		t.Error("first read labelled sequential")
	}
	c.noteDiskRead(100)
	if !c.label(130, false) {
		t.Error("nearby read not labelled sequential")
	}
	if c.label(100+distanceWindow+1, false) {
		t.Error("far read labelled sequential")
	}
	c.noteDiskRead(5000)
	if c.label(101, false) {
		t.Error("stale proximity")
	}
}

func TestReadAheadClassifierLabels(t *testing.T) {
	c := newClassifier(ClassifyReadAhead)
	if c.label(1, false) {
		t.Error("point read labelled sequential")
	}
	if !c.label(1, true) {
		t.Error("read-ahead read not labelled sequential")
	}
}

func TestTACEngineFlow(t *testing.T) {
	cfg := testConfig(ssd.TAC)
	cfg.PoolPages = 4
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		e.Get(p, 1)
		p.Sleep(10 * time.Millisecond) // let the async admission land
		if !e.SSD().Contains(1) {
			t.Fatal("TAC did not admit the page read from disk")
		}
		// Dirty it: logical invalidation (frame stays occupied).
		tx := e.Begin()
		e.Update(p, tx, 1, func(pl []byte) { pl[0] = 1 })
		e.Commit(p, tx)
		if e.SSD().Contains(1) {
			t.Error("invalid copy still visible")
		}
		if e.SSD().InvalidCount() != 1 {
			t.Errorf("InvalidCount = %d", e.SSD().InvalidCount())
		}
		// Evict the dirty page: double-touch fillers so page 1 (whose
		// penultimate access is oldest) becomes the LRU-2 victim.
		for pid := page.ID(10); pid < 20; pid++ {
			e.Get(p, pid)
			e.Get(p, pid)
		}
		if !e.SSD().Contains(1) {
			t.Error("dirty eviction did not revalidate the SSD copy")
		}
	})
}

func TestCommittedWorkSurvivesWALRecordTypes(t *testing.T) {
	env, e := start(t, testConfig(ssd.NoSSD))
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		tx := e.Begin()
		e.Update(p, tx, 0, func(pl []byte) { pl[0] = 1 })
		e.Commit(p, tx)
	})
	recs := e.Log().Durable()
	if len(recs) != 1 || recs[0].Type != wal.TypeUpdate || recs[0].Page != 0 {
		t.Errorf("durable log = %+v", recs)
	}
}

func TestPageBoundsValidation(t *testing.T) {
	env, e := start(t, testConfig(ssd.NoSSD))
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		if _, err := e.Get(p, -1); !errors.Is(err, ErrPageRange) {
			t.Errorf("Get(-1) = %v", err)
		}
		if _, err := e.Get(p, 512); !errors.Is(err, ErrPageRange) {
			t.Errorf("Get(512) = %v", err)
		}
		tx := e.Begin()
		if err := e.Update(p, tx, 9999, func([]byte) {}); !errors.Is(err, ErrPageRange) {
			t.Errorf("Update out of range = %v", err)
		}
		if err := e.Scan(p, 500, 20); !errors.Is(err, ErrPageRange) {
			t.Errorf("Scan past end = %v", err)
		}
		if err := e.Scan(p, 0, -1); !errors.Is(err, ErrPageRange) {
			t.Errorf("negative Scan = %v", err)
		}
		if err := e.Scan(p, 0, 0); err != nil {
			t.Errorf("empty Scan = %v", err)
		}
	})
}
