package ssd

import (
	"testing"
	"time"

	"turbobp/internal/device"
	"turbobp/internal/page"
	"turbobp/internal/sim"
)

const testPayload = 40

// testPages bounds the page ids the tests cache.
const testPages = 1024

// recordingDisk implements Disk, recording write runs without charging time.
type recordingDisk struct {
	writes []diskWrite
}

type diskWrite struct {
	start page.ID
	n     int
}

func (d *recordingDisk) WriteEncodedTask(_ *sim.Task, start page.ID, bufs [][]byte, k func(error)) {
	d.writes = append(d.writes, diskWrite{start: start, n: len(bufs)})
	k(nil)
}

func (d *recordingDisk) pagesWritten() int {
	n := 0
	for _, w := range d.writes {
		n += w.n
	}
	return n
}

type fixture struct {
	env  *sim.Env
	dev  *device.SSD
	disk *recordingDisk
	m    *Manager
}

func newFixture(design Design, frames int, mod func(*Config)) *fixture {
	env := sim.NewEnv()
	dev := device.NewSSD(env, device.PaperSSDProfile(), device.PageNum(frames))
	disk := &recordingDisk{}
	cfg := Config{
		Design:      design,
		Frames:      frames,
		Partitions:  1,
		PayloadSize: testPayload,
	}
	if mod != nil {
		mod(&cfg)
	}
	return &fixture{env: env, dev: dev, disk: disk, m: NewManager(env, dev, disk, testPages, cfg)}
}

func mkPage(id page.ID, lsn uint64, fill byte) *page.Page {
	pl := make([]byte, testPayload)
	for i := range pl {
		pl[i] = fill
	}
	return &page.Page{ID: id, LSN: lsn, Payload: pl}
}

// run executes fn as a simulation process and drains the environment.
func (f *fixture) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	f.env.Go("test", fn)
	f.env.Run(-1)
}

func TestReadMissOnEmpty(t *testing.T) {
	f := newFixture(DW, 8, nil)
	f.run(t, func(p *sim.Proc) {
		pg := mkPage(0, 0, 0)
		hit, err := f.m.Read(p, 5, pg)
		if err != nil || hit {
			t.Errorf("Read = (%v,%v), want miss", hit, err)
		}
	})
	if f.m.Stats().Misses != 1 {
		t.Errorf("Misses = %d", f.m.Stats().Misses)
	}
}

func TestCleanEvictionCachesAndHits(t *testing.T) {
	f := newFixture(DW, 8, nil)
	f.run(t, func(p *sim.Proc) {
		src := mkPage(7, 42, 0xEE)
		if err := f.m.OnEvict(p, src, false, true); err != nil {
			t.Fatalf("OnEvict: %v", err)
		}
		if !f.m.Contains(7) {
			t.Fatal("page not cached after clean eviction")
		}
		got := mkPage(0, 0, 0)
		hit, err := f.m.Read(p, 7, got)
		if err != nil || !hit {
			t.Fatalf("Read = (%v,%v), want hit", hit, err)
		}
		if got.LSN != 42 || got.Payload[0] != 0xEE {
			t.Errorf("read back lsn=%d fill=%x", got.LSN, got.Payload[0])
		}
	})
	if len(f.disk.writes) != 0 {
		t.Errorf("clean eviction wrote to disk: %v", f.disk.writes)
	}
}

func TestSequentialNotAdmittedAfterFill(t *testing.T) {
	f := newFixture(DW, 10, func(c *Config) { c.FillThreshold = 0.2 }) // target = 2
	f.run(t, func(p *sim.Proc) {
		// Two admissions fill to τ, even though sequential.
		f.m.OnEvict(p, mkPage(1, 1, 1), false, false)
		f.m.OnEvict(p, mkPage(2, 1, 1), false, false)
		if !f.m.Contains(1) || !f.m.Contains(2) {
			t.Fatal("aggressive filling did not admit sequential pages")
		}
		// Above τ, sequential pages are rejected but random ones accepted.
		f.m.OnEvict(p, mkPage(3, 1, 1), false, false)
		if f.m.Contains(3) {
			t.Error("sequential page admitted past the filling threshold")
		}
		f.m.OnEvict(p, mkPage(4, 1, 1), false, true)
		if !f.m.Contains(4) {
			t.Error("random page rejected")
		}
	})
}

func TestCWDirtyEvictionGoesOnlyToDisk(t *testing.T) {
	f := newFixture(CW, 8, nil)
	f.run(t, func(p *sim.Proc) {
		f.m.OnEvict(p, mkPage(3, 9, 1), true, true)
	})
	if f.m.Contains(3) {
		t.Error("CW cached a dirty page")
	}
	if len(f.disk.writes) != 1 || f.disk.writes[0].start != 3 {
		t.Errorf("disk writes = %v", f.disk.writes)
	}
}

func TestDWDirtyEvictionGoesToBoth(t *testing.T) {
	f := newFixture(DW, 8, nil)
	f.run(t, func(p *sim.Proc) {
		f.m.OnEvict(p, mkPage(3, 9, 1), true, true)
	})
	if !f.m.Contains(3) {
		t.Error("DW did not cache the dirty page")
	}
	if f.m.IsDirty(3) {
		t.Error("DW cached the page as dirty; the SSD copy equals disk and must be clean")
	}
	if len(f.disk.writes) != 1 {
		t.Errorf("disk writes = %v", f.disk.writes)
	}
	if f.dev.Stats().Load().WriteOps != 1 {
		t.Errorf("ssd writes = %d", f.dev.Stats().Load().WriteOps)
	}
}

func TestDWWritesAreConcurrent(t *testing.T) {
	// The dual write completes in max(disk, ssd) time, not the sum: with a
	// slow recording disk replaced by a timed one this is visible. Here we
	// use the SSD device plus a disk that charges 10ms via a sim sleep.
	env := sim.NewEnv()
	dev := device.NewSSD(env, device.Profile{RandWrite: 4 * time.Millisecond, SeqWrite: 4 * time.Millisecond, RandRead: time.Millisecond, SeqRead: time.Millisecond}, 8)
	slow := &slowDisk{d: 10 * time.Millisecond}
	m := NewManager(env, dev, slow, testPages, Config{Design: DW, Frames: 8, Partitions: 1, PayloadSize: testPayload})
	var took time.Duration
	env.Go("t", func(p *sim.Proc) {
		m.OnEvict(p, mkPage(1, 1, 1), true, true)
		took = p.Now()
	})
	env.Run(-1)
	if took != 10*time.Millisecond {
		t.Errorf("dual write took %v, want 10ms (max of 10ms disk, 4ms ssd)", took)
	}
}

type slowDisk struct{ d time.Duration }

func (s *slowDisk) WriteEncodedTask(t *sim.Task, _ page.ID, _ [][]byte, k func(error)) {
	t.Sleep(s.d, func() { k(nil) })
}

func TestLCDirtyEvictionGoesOnlyToSSD(t *testing.T) {
	f := newFixture(LC, 8, nil)
	f.run(t, func(p *sim.Proc) {
		f.m.OnEvict(p, mkPage(3, 9, 0xCD), true, true)
		if !f.m.IsDirty(3) {
			t.Fatal("LC page not cached dirty")
		}
		got := mkPage(0, 0, 0)
		hit, _ := f.m.Read(p, 3, got)
		if !hit || got.LSN != 9 || got.Payload[0] != 0xCD {
			t.Errorf("hit=%v lsn=%d", hit, got.LSN)
		}
	})
	if len(f.disk.writes) != 0 {
		t.Errorf("LC wrote to disk at eviction: %v", f.disk.writes)
	}
	if f.m.DirtyCount() != 1 {
		t.Errorf("DirtyCount = %d", f.m.DirtyCount())
	}
}

func TestLCStopsCachingDirtyDuringCheckpoint(t *testing.T) {
	f := newFixture(LC, 8, nil)
	f.run(t, func(p *sim.Proc) {
		f.m.SetCheckpointing(true)
		f.m.OnEvict(p, mkPage(3, 9, 1), true, true)
		if f.m.Contains(3) {
			t.Error("LC cached a dirty page during checkpoint")
		}
		f.m.SetCheckpointing(false)
		f.m.OnEvict(p, mkPage(4, 9, 1), true, true)
		if !f.m.IsDirty(4) {
			t.Error("LC did not resume caching after checkpoint")
		}
	})
	if len(f.disk.writes) != 1 || f.disk.writes[0].start != 3 {
		t.Errorf("disk writes = %v", f.disk.writes)
	}
}

func TestInvalidatePhysicallyReclaims(t *testing.T) {
	f := newFixture(DW, 8, nil)
	f.run(t, func(p *sim.Proc) {
		f.m.OnEvict(p, mkPage(5, 1, 1), false, true)
		if f.m.Occupied() != 1 {
			t.Fatalf("Occupied = %d", f.m.Occupied())
		}
		f.m.Invalidate(5)
		if f.m.Contains(5) {
			t.Error("page still cached after invalidation")
		}
		if f.m.Occupied() != 0 {
			t.Errorf("Occupied = %d; CW/DW/LC invalidation must free the frame", f.m.Occupied())
		}
	})
	if f.m.Stats().Invalidations != 1 {
		t.Errorf("Invalidations = %d", f.m.Stats().Invalidations)
	}
}

func TestLRU2ReplacementOrder(t *testing.T) {
	f := newFixture(DW, 3, func(c *Config) { c.FillThreshold = 1.0 })
	f.run(t, func(p *sim.Proc) {
		f.m.OnEvict(p, mkPage(1, 1, 1), false, true)
		p.Sleep(time.Millisecond)
		f.m.OnEvict(p, mkPage(2, 1, 1), false, true)
		p.Sleep(time.Millisecond)
		f.m.OnEvict(p, mkPage(3, 1, 1), false, true)
		p.Sleep(time.Millisecond)
		// Touch 1 twice via reads; 2 once; 3 never.
		buf := mkPage(0, 0, 0)
		f.m.Read(p, 1, buf)
		p.Sleep(time.Millisecond)
		f.m.Read(p, 1, buf)
		p.Sleep(time.Millisecond)
		f.m.Read(p, 2, buf)
		p.Sleep(time.Millisecond)
		// SSD full: admitting 4 must evict the LRU-2 victim. Pages 2 and 3
		// have an infinite backward 2-distance (one access since load
		// counts the load itself... load + one read for 2). Page 3 has
		// only its load access => victim.
		f.m.OnEvict(p, mkPage(4, 1, 1), false, true)
		if f.m.Contains(3) {
			t.Error("page 3 (oldest penultimate access) survived")
		}
		if !f.m.Contains(1) || !f.m.Contains(2) || !f.m.Contains(4) {
			t.Error("wrong pages evicted")
		}
	})
	if f.m.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d", f.m.Stats().Evictions)
	}
}

func TestDirtyFramesNotReplacementVictims(t *testing.T) {
	f := newFixture(LC, 2, func(c *Config) { c.FillThreshold = 1.0; c.DirtyFraction = 1.0 })
	f.run(t, func(p *sim.Proc) {
		f.m.OnEvict(p, mkPage(1, 1, 1), true, true) // dirty
		p.Sleep(time.Millisecond)
		f.m.OnEvict(p, mkPage(2, 1, 1), true, true) // dirty
		p.Sleep(time.Millisecond)
		// SSD full of dirty pages: a clean admission finds no victim and
		// is dropped; a dirty eviction falls back to disk.
		f.m.OnEvict(p, mkPage(3, 1, 1), false, true)
		if f.m.Contains(3) {
			t.Error("clean page displaced a dirty frame")
		}
		f.m.OnEvict(p, mkPage(4, 1, 1), true, true)
		if f.m.Contains(4) {
			t.Error("dirty page displaced a dirty frame")
		}
		if !f.m.IsDirty(1) || !f.m.IsDirty(2) {
			t.Error("dirty frames lost")
		}
	})
	// Page 4's eviction must have fallen back to a disk write.
	if len(f.disk.writes) != 1 || f.disk.writes[0].start != 4 {
		t.Errorf("disk writes = %v", f.disk.writes)
	}
}

func TestCleanerDrivesDirtyBelowThreshold(t *testing.T) {
	f := newFixture(LC, 10, func(c *Config) {
		c.DirtyFraction = 0.5
		c.CleanerPoll = time.Millisecond
		c.GroupClean = 4
	})
	f.m.StartCleaner()
	f.run(t, func(p *sim.Proc) {
		for i := 1; i <= 8; i++ {
			f.m.OnEvict(p, mkPage(page.ID(i), 1, byte(i)), true, true)
		}
		if f.m.DirtyCount() != 8 {
			t.Fatalf("DirtyCount = %d", f.m.DirtyCount())
		}
		p.Sleep(100 * time.Millisecond) // let the cleaner run
		f.m.StopCleaner()
		if got := f.m.DirtyCount(); got > 5-1 {
			t.Errorf("DirtyCount = %d after cleaning, want < threshold (5)", got)
		}
		// Cleaned pages are still cached, now clean.
		for i := 1; i <= 8; i++ {
			if !f.m.Contains(page.ID(i)) {
				t.Errorf("page %d lost by cleaning", i)
			}
		}
	})
	if f.disk.pagesWritten() == 0 {
		t.Error("cleaner wrote nothing to disk")
	}
}

func TestGroupCleaningWritesContiguousRuns(t *testing.T) {
	f := newFixture(LC, 32, func(c *Config) {
		c.DirtyFraction = 0.05 // cleaner target ~1
		c.CleanerPoll = time.Millisecond
		c.GroupClean = 8
	})
	f.m.StartCleaner()
	f.run(t, func(p *sim.Proc) {
		// Dirty pages 10..19 (consecutive disk addresses).
		for i := 10; i < 20; i++ {
			f.m.OnEvict(p, mkPage(page.ID(i), 1, 1), true, true)
		}
		p.Sleep(200 * time.Millisecond)
		f.m.StopCleaner()
	})
	if len(f.disk.writes) == 0 {
		t.Fatal("no cleaning writes")
	}
	multi := 0
	for _, w := range f.disk.writes {
		if w.n > 1 {
			multi++
		}
		if w.n > 8 {
			t.Errorf("cleaning run of %d pages exceeds α=8", w.n)
		}
	}
	if multi == 0 {
		t.Errorf("no multi-page cleaning writes despite contiguous dirty pages: %v", f.disk.writes)
	}
}

func TestFlushDirtyCleansEverything(t *testing.T) {
	f := newFixture(LC, 16, func(c *Config) { c.DirtyFraction = 1.0 })
	f.run(t, func(p *sim.Proc) {
		for i := 0; i < 10; i += 2 { // non-contiguous
			f.m.OnEvict(p, mkPage(page.ID(i), 1, 1), true, true)
		}
		if err := f.m.FlushDirty(p); err != nil {
			t.Fatal(err)
		}
		if f.m.DirtyCount() != 0 {
			t.Errorf("DirtyCount = %d after FlushDirty", f.m.DirtyCount())
		}
	})
	if f.disk.pagesWritten() != 5 {
		t.Errorf("flushed %d pages, want 5", f.disk.pagesWritten())
	}
	if f.m.Stats().CheckpointPgs != 5 {
		t.Errorf("CheckpointPgs = %d", f.m.Stats().CheckpointPgs)
	}
}

func TestThrottleSkipsCleanReadsNotDirty(t *testing.T) {
	f := newFixture(LC, 8, func(c *Config) { c.Throttle = 1 })
	f.run(t, func(p *sim.Proc) {
		f.m.OnEvict(p, mkPage(1, 1, 1), false, true) // clean copy
		f.m.OnEvict(p, mkPage(2, 2, 2), true, true)  // dirty copy
		// Saturate the SSD queue with background readers.
		for i := 0; i < 3; i++ {
			f.env.Go("noise", func(q *sim.Proc) {
				buf := [][]byte{make([]byte, page.HeaderSize+testPayload)}
				for j := 0; j < 50; j++ {
					f.dev.Read(q, 0, buf)
				}
			})
		}
		p.Yield() // let the noise queue up
		if f.dev.Pending() < 1 {
			t.Fatal("queue not saturated")
		}
		got := mkPage(0, 0, 0)
		hit, _ := f.m.Read(p, 1, got)
		if hit {
			t.Error("clean read served despite throttle")
		}
		hit, err := f.m.Read(p, 2, got)
		if err != nil || !hit {
			t.Errorf("dirty read = (%v,%v); must bypass throttle for correctness", hit, err)
		}
	})
	if f.m.Stats().ThrottleReads != 1 {
		t.Errorf("ThrottleReads = %d", f.m.Stats().ThrottleReads)
	}
}

func TestThrottleSkipsAdmissions(t *testing.T) {
	f := newFixture(DW, 8, func(c *Config) { c.Throttle = 1 })
	f.run(t, func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			f.env.Go("noise", func(q *sim.Proc) {
				buf := [][]byte{make([]byte, page.HeaderSize+testPayload)}
				for j := 0; j < 50; j++ {
					f.dev.Read(q, 0, buf)
				}
			})
		}
		p.Yield()
		f.m.OnEvict(p, mkPage(1, 1, 1), false, true)
		if f.m.Contains(1) {
			t.Error("admission proceeded despite throttle")
		}
	})
	if f.m.Stats().ThrottleWrites == 0 {
		t.Error("ThrottleWrites not counted")
	}
}

func TestTACLogicalInvalidationWastesSpace(t *testing.T) {
	f := newFixture(TAC, 8, nil)
	f.run(t, func(p *sim.Proc) {
		clean := true
		f.m.TACOnDiskRead(mkPage(5, 1, 1), true, func() bool { return clean })
		p.Sleep(10 * time.Millisecond)
		if !f.m.Contains(5) {
			t.Fatal("TAC did not admit on disk read")
		}
		f.m.Invalidate(5)
		if f.m.Contains(5) {
			t.Error("invalid page still reported cached")
		}
		if f.m.Occupied() != 1 {
			t.Errorf("Occupied = %d; TAC must keep the frame occupied", f.m.Occupied())
		}
		if f.m.InvalidCount() != 1 {
			t.Errorf("InvalidCount = %d", f.m.InvalidCount())
		}
	})
}

func TestTACAbortsAdmissionWhenDirtiedFirst(t *testing.T) {
	f := newFixture(TAC, 8, nil)
	f.run(t, func(p *sim.Proc) {
		clean := true
		f.m.TACOnDiskRead(mkPage(5, 1, 1), true, func() bool { return clean })
		clean = false // forward processing dirties the page immediately
		p.Sleep(10 * time.Millisecond)
		if f.m.Contains(5) {
			t.Error("TAC admitted a page that was dirtied before the async write")
		}
	})
	if f.m.Stats().TACAborts != 1 {
		t.Errorf("TACAborts = %d", f.m.Stats().TACAborts)
	}
}

func TestTACRevalidatesOnDirtyEviction(t *testing.T) {
	f := newFixture(TAC, 8, nil)
	f.run(t, func(p *sim.Proc) {
		clean := true
		f.m.TACOnDiskRead(mkPage(5, 1, 0xAA), true, func() bool { return clean })
		p.Sleep(10 * time.Millisecond)
		f.m.Invalidate(5)
		// Dirty eviction: disk write plus refresh of the invalid frame.
		f.m.OnEvict(p, mkPage(5, 2, 0xBB), true, true)
		if !f.m.Contains(5) {
			t.Fatal("invalid frame not revalidated")
		}
		got := mkPage(0, 0, 0)
		hit, _ := f.m.Read(p, 5, got)
		if !hit || got.LSN != 2 || got.Payload[0] != 0xBB {
			t.Errorf("revalidated copy: hit=%v lsn=%d fill=%x", hit, got.LSN, got.Payload[0])
		}
	})
	if len(f.disk.writes) != 1 {
		t.Errorf("disk writes = %v (TAC is write-through)", f.disk.writes)
	}
	if f.m.Stats().Revalidations != 1 {
		t.Errorf("Revalidations = %d", f.m.Stats().Revalidations)
	}
}

func TestTACDirtyEvictionWithoutInvalidCopyNotCached(t *testing.T) {
	f := newFixture(TAC, 8, nil)
	f.run(t, func(p *sim.Proc) {
		// Page never admitted (e.g. dirtied before the async write, or
		// created on the fly): its dirty eviction goes only to disk.
		f.m.OnEvict(p, mkPage(9, 1, 1), true, true)
		if f.m.Contains(9) {
			t.Error("TAC cached a dirty eviction with no invalid version present")
		}
	})
	if len(f.disk.writes) != 1 {
		t.Errorf("disk writes = %v", f.disk.writes)
	}
}

func TestTACTemperatureAdmission(t *testing.T) {
	f := newFixture(TAC, 2, func(c *Config) {
		c.FillThreshold = 1.0
		c.ExtentPages = 1 // one extent per page for direct control
	})
	f.run(t, func(p *sim.Proc) {
		still := func() bool { return true }
		// Heat up pages 1 and 2, admit them (SSD now full).
		f.m.TACNoteMiss(1, true)
		f.m.TACNoteMiss(2, true)
		f.m.TACOnDiskRead(mkPage(1, 1, 1), true, still)
		f.m.TACOnDiskRead(mkPage(2, 1, 1), true, still)
		p.Sleep(10 * time.Millisecond)
		if f.m.Occupied() != 2 {
			t.Fatalf("Occupied = %d", f.m.Occupied())
		}
		// Page 3 is colder (no misses recorded): must be rejected.
		f.m.TACOnDiskRead(mkPage(3, 1, 1), true, still)
		p.Sleep(10 * time.Millisecond)
		if f.m.Contains(3) {
			t.Error("cold page displaced a hot one")
		}
		// Now make page 3's extent the hottest: admitted, evicting the
		// coldest cached page.
		for i := 0; i < 5; i++ {
			f.m.TACNoteMiss(3, true)
		}
		f.m.TACOnDiskRead(mkPage(3, 1, 1), true, still)
		p.Sleep(10 * time.Millisecond)
		if !f.m.Contains(3) {
			t.Error("hot page rejected")
		}
		if f.m.Occupied() != 2 {
			t.Errorf("Occupied = %d after replacement", f.m.Occupied())
		}
	})
}

func TestTACNoteMissAccumulates(t *testing.T) {
	f := newFixture(TAC, 8, func(c *Config) {
		c.ExtentPages = 4
		c.RandSavedMs = 7.0
		c.SeqSavedMs = 0.5
	})
	f.m.TACNoteMiss(0, true)
	f.m.TACNoteMiss(1, true) // same extent as 0
	f.m.TACNoteMiss(2, false)
	if got := f.m.ExtentTemperature(0); got != 14.5 {
		t.Errorf("extent 0 temp = %v, want 14.5", got)
	}
	if got := f.m.ExtentTemperature(4); got != 0 {
		t.Errorf("extent 1 temp = %v, want 0", got)
	}
}

func TestShardingDistributesFrames(t *testing.T) {
	f := newFixture(DW, 64, func(c *Config) { c.Partitions = 16 })
	if len(f.m.shards) != 16 {
		t.Fatalf("shards = %d", len(f.m.shards))
	}
	for i, s := range f.m.shards {
		if len(s.free) != 4 {
			t.Errorf("shard %d has %d frames, want 4", i, len(s.free))
		}
	}
}

func TestAdmissionsAcrossShards(t *testing.T) {
	f := newFixture(DW, 64, func(c *Config) { c.Partitions = 8 })
	f.run(t, func(p *sim.Proc) {
		for i := 0; i < 48; i++ {
			f.m.OnEvict(p, mkPage(page.ID(i), 1, 1), false, true)
		}
		for i := 0; i < 48; i++ {
			if !f.m.Contains(page.ID(i)) {
				t.Errorf("page %d missing", i)
			}
		}
	})
	if f.m.Occupied() != 48 {
		t.Errorf("Occupied = %d", f.m.Occupied())
	}
}

func TestNoSSDManagerIsInert(t *testing.T) {
	f := newFixture(NoSSD, 0, nil)
	f.run(t, func(p *sim.Proc) {
		pg := mkPage(1, 1, 1)
		hit, err := f.m.Read(p, 1, pg)
		if hit || err != nil {
			t.Errorf("Read = (%v,%v)", hit, err)
		}
		if err := f.m.OnEvict(p, pg, true, true); err != nil {
			t.Fatal(err)
		}
		if err := f.m.OnEvict(p, pg, false, true); err != nil {
			t.Fatal(err)
		}
		f.m.Invalidate(1)
	})
	if len(f.disk.writes) != 1 {
		t.Errorf("disk writes = %v, want just the dirty eviction", f.disk.writes)
	}
}

func TestDesignString(t *testing.T) {
	cases := map[Design]string{NoSSD: "noSSD", CW: "CW", DW: "DW", LC: "LC", TAC: "TAC", Design(99): "Design(99)"}
	for d, want := range cases {
		if d.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), want)
		}
	}
}

func TestReadAfterOverwriteReturnsLatest(t *testing.T) {
	f := newFixture(LC, 8, nil)
	f.run(t, func(p *sim.Proc) {
		f.m.OnEvict(p, mkPage(1, 1, 0x11), true, true)
		// Re-eviction of a newer version overwrites in place.
		f.m.OnEvict(p, mkPage(1, 2, 0x22), true, true)
		got := mkPage(0, 0, 0)
		hit, _ := f.m.Read(p, 1, got)
		if !hit || got.LSN != 2 || got.Payload[0] != 0x22 {
			t.Errorf("hit=%v lsn=%d fill=%x, want latest version", hit, got.LSN, got.Payload[0])
		}
	})
	if f.m.DirtyCount() != 1 {
		t.Errorf("DirtyCount = %d", f.m.DirtyCount())
	}
}

func TestOccupiedNeverExceedsFrames(t *testing.T) {
	f := newFixture(DW, 4, func(c *Config) { c.FillThreshold = 1.0 })
	f.run(t, func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			f.m.OnEvict(p, mkPage(page.ID(i), 1, 1), false, true)
			p.Sleep(time.Millisecond)
			if f.m.Occupied() > 4 {
				t.Fatalf("Occupied = %d > frames", f.m.Occupied())
			}
		}
	})
	if f.m.Occupied() != 4 {
		t.Errorf("Occupied = %d, want 4", f.m.Occupied())
	}
}
