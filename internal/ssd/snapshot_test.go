package ssd

import (
	"testing"

	"turbobp/internal/device"
	"turbobp/internal/page"
	"turbobp/internal/sim"
)

func TestSnapshotRoundTrip(t *testing.T) {
	f := newFixture(DW, 16, nil)
	f.run(t, func(p *sim.Proc) {
		for i := 1; i <= 5; i++ {
			f.m.OnEvict(p, mkPage(page.ID(i*10), uint64(i), byte(i)), false, true)
		}
	})
	blob := f.m.SnapshotTable()
	if len(blob)%12 != 0 || len(blob)/12 != 5 {
		t.Fatalf("blob = %d bytes, want 5 entries", len(blob))
	}

	// A fresh manager over the same device restores the cache.
	m2 := NewManager(f.env, f.dev, f.disk, nil, testPages, f.m.cfg)
	if err := m2.RestoreTable(blob); err != nil {
		t.Fatal(err)
	}
	if m2.Occupied() != 5 {
		t.Fatalf("Occupied = %d after restore", m2.Occupied())
	}
	f.env.Go("verify", func(p *sim.Proc) {
		for i := 1; i <= 5; i++ {
			got := mkPage(0, 0, 0)
			hit, err := m2.Read(p, page.ID(i*10), got)
			if err != nil || !hit {
				t.Errorf("page %d: hit=%v err=%v", i*10, hit, err)
				continue
			}
			if got.LSN != uint64(i) || got.Payload[0] != byte(i) {
				t.Errorf("page %d: lsn=%d fill=%d", i*10, got.LSN, got.Payload[0])
			}
		}
	})
	f.env.Run(-1)
}

func TestSnapshotSkipsDirtyAndInvalid(t *testing.T) {
	f := newFixture(LC, 16, func(c *Config) { c.DirtyFraction = 1.0 })
	f.run(t, func(p *sim.Proc) {
		f.m.OnEvict(p, mkPage(1, 1, 1), false, true) // clean
		f.m.OnEvict(p, mkPage(2, 1, 1), true, true)  // dirty
		f.m.OnEvict(p, mkPage(3, 1, 1), false, true) // clean, then invalidated
		f.m.Invalidate(3)
	})
	blob := f.m.SnapshotTable()
	if len(blob)/12 != 1 {
		t.Fatalf("snapshot has %d entries, want only the clean valid one", len(blob)/12)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	f := newFixture(DW, 8, nil)
	if err := f.m.RestoreTable(make([]byte, 13)); err == nil {
		t.Error("odd-size blob accepted")
	}
}

func TestRestoreRejectsNonEmptyManager(t *testing.T) {
	f := newFixture(DW, 8, nil)
	f.run(t, func(p *sim.Proc) {
		f.m.OnEvict(p, mkPage(1, 1, 1), false, true)
	})
	blob := f.m.SnapshotTable()
	if err := f.m.RestoreTable(blob); err == nil {
		t.Error("restore into occupied manager accepted")
	}
}

func TestRestoreSkipsOutOfRangeFrames(t *testing.T) {
	f := newFixture(DW, 16, nil)
	f.run(t, func(p *sim.Proc) {
		for i := 1; i <= 8; i++ {
			f.m.OnEvict(p, mkPage(page.ID(i), 1, 1), false, true)
		}
	})
	blob := f.m.SnapshotTable()
	// Restore into a SMALLER manager: entries beyond its frame count are
	// skipped, the rest restored.
	env := sim.NewEnv()
	dev := device.NewSSD(env, device.PaperSSDProfile(), 4)
	cfg := f.m.cfg
	cfg.SSDFrames = 4
	m2 := NewManager(env, dev, &recordingDisk{}, nil, testPages, cfg)
	if err := m2.RestoreTable(blob); err != nil {
		t.Fatal(err)
	}
	if m2.Occupied() > 4 {
		t.Errorf("Occupied = %d > frames", m2.Occupied())
	}
}

func TestRestoredFramesParticipateInReplacement(t *testing.T) {
	f := newFixture(DW, 4, func(c *Config) { c.FillThreshold = 1.0 })
	f.run(t, func(p *sim.Proc) {
		for i := 1; i <= 4; i++ {
			f.m.OnEvict(p, mkPage(page.ID(i), 1, 1), false, true)
		}
	})
	blob := f.m.SnapshotTable()
	m2 := NewManager(f.env, f.dev, f.disk, nil, testPages, f.m.cfg)
	if err := m2.RestoreTable(blob); err != nil {
		t.Fatal(err)
	}
	f.env.Go("evict", func(p *sim.Proc) {
		// The restored cache is full; a new admission must evict a
		// restored frame, not fail.
		f_, err := m2.admit(p, mkPage(99, 1, 1), false)
		if err != nil || !f_ {
			t.Errorf("admit = (%v,%v)", f_, err)
		}
		if !m2.Contains(99) {
			t.Error("new page not admitted over restored cache")
		}
		if m2.Occupied() != 4 {
			t.Errorf("Occupied = %d", m2.Occupied())
		}
	})
	f.env.Run(-1)
}
