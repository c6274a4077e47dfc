package engine

import (
	"testing"

	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
)

// driveEngine runs fn to completion inside a simulation process.
func driveEngine(t *testing.T, env *sim.Env, fn func(p *sim.Proc) error) {
	t.Helper()
	done := false
	var err error
	env.Go("driver", func(p *sim.Proc) {
		err = fn(p)
		done = true
	})
	env.Run(-1)
	if !done {
		t.Fatal("driver did not finish")
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecycledBuffersDoNotAlias is the aliasing guard for the zero-alloc
// read/write path: pages stamped with distinct content survive dirty
// eviction, disk write-back and re-fetch through recycled I/O buffers
// with their ID, LSN and payload intact.
func TestRecycledBuffersDoNotAlias(t *testing.T) {
	env := sim.NewEnv()
	defer env.Shutdown()
	cfg := Config{
		Config:        ssd.Config{Design: ssd.NoSSD, PayloadSize: 32},
		DBPages:       64,
		PoolPages:     8,
		ReadExpansion: -1,
	}
	e := New(env, cfg)
	if err := e.FormatDB(); err != nil {
		t.Fatal(err)
	}
	const stamped = 16
	driveEngine(t, env, func(p *sim.Proc) error {
		for i := 0; i < stamped; i++ {
			tx := e.Begin()
			v := byte(i + 1)
			if err := e.Update(p, tx, page.ID(i), func(pl []byte) { pl[0] = v }); err != nil {
				return err
			}
			if err := e.Commit(p, tx); err != nil {
				return err
			}
		}
		// Cycle the 8-frame pool through the rest of the database several
		// times: every stamped page gets evicted (dirty write-back through
		// a pooled buffer) and its frame re-used for other pages.
		for round := 0; round < 4; round++ {
			for i := stamped; i < int(cfg.DBPages); i++ {
				if _, err := e.Get(p, page.ID(i)); err != nil {
					return err
				}
			}
		}
		for i := 0; i < stamped; i++ {
			f, err := e.Get(p, page.ID(i))
			if err != nil {
				return err
			}
			if f.Pg.ID != page.ID(i) {
				t.Errorf("frame for page %d carries ID %d", i, f.Pg.ID)
			}
			if f.Pg.LSN == 0 {
				t.Errorf("page %d lost its LSN through eviction", i)
			}
			if got := f.Pg.Payload[0]; got != byte(i+1) {
				t.Errorf("page %d payload[0] = %d, want %d — recycled buffer aliased", i, got, i+1)
			}
		}
		return nil
	})
}
