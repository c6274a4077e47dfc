package engine

import (
	"bytes"
	"math/rand"
	"testing"

	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
)

func TestFuzzyCheckpointFlushesNothing(t *testing.T) {
	cfg := testConfig(ssd.LC)
	cfg.FuzzyCheckpoints = true
	cfg.DirtyFraction = 1.0
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		tx := e.Begin()
		for pid := page.ID(0); pid < 10; pid++ {
			e.Update(p, tx, pid, func(pl []byte) { pl[0] = 1 })
		}
		e.Commit(p, tx)
		writes := e.DiskArray().Stats().WriteOps
		if err := e.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		if got := e.DiskArray().Stats().WriteOps; got != writes {
			t.Errorf("fuzzy checkpoint issued %d disk writes", got-writes)
		}
		if n := len(e.Pool().DirtyPages()); n != 10 {
			t.Errorf("fuzzy checkpoint cleaned pages (%d dirty)", n)
		}
		cp, ok := e.Log().LastCheckpoint()
		if !ok {
			t.Fatal("no checkpoint record")
		}
		// The horizon must cover the oldest dirty update (LSN 1).
		if cp.StartLSN != 0 {
			t.Errorf("horizon = %d, want 0 (all ten updates unflushed)", cp.StartLSN)
		}
	})
}

func TestFuzzyCheckpointHorizonAdvances(t *testing.T) {
	cfg := testConfig(ssd.NoSSD)
	cfg.FuzzyCheckpoints = true
	cfg.PoolPages = 4 // small pool so the eviction loop below flushes page 1
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		tx := e.Begin()
		e.Update(p, tx, 1, func(pl []byte) { pl[0] = 1 }) // LSN 1
		e.Commit(p, tx)
		// Clean page 1 by evicting it.
		for pid := page.ID(10); pid < 20; pid++ {
			e.Get(p, pid)
		}
		tx2 := e.Begin()
		e.Update(p, tx2, 2, func(pl []byte) { pl[0] = 2 })
		e.Commit(p, tx2)
		if err := e.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		cp, _ := e.Log().LastCheckpoint()
		// Only page 2's update (the newest LSN) is unflushed.
		if cp.StartLSN < 1 {
			t.Errorf("horizon = %d; the flushed page 1 update should be excluded", cp.StartLSN)
		}
	})
}

// TestFuzzyCheckpointShadowModel runs the full crash/recovery property
// under fuzzy checkpoints for all designs.
func TestFuzzyCheckpointShadowModel(t *testing.T) {
	for _, design := range []ssd.Design{ssd.NoSSD, ssd.CW, ssd.DW, ssd.LC, ssd.TAC} {
		t.Run(design.String(), func(t *testing.T) {
			cfg := testConfig(design)
			cfg.PoolPages = 8
			cfg.SSDFrames = 24
			cfg.DirtyFraction = 0.9
			cfg.FuzzyCheckpoints = true
			env, e := start(t, cfg)
			defer finish(env, e)
			rng := rand.New(rand.NewSource(21))
			shadow := &shadowHistory{}
			drive(t, env, e, func(p *sim.Proc) {
				for i := 0; i < 250; i++ {
					tx := e.Begin()
					for j := 0; j < 3; j++ {
						pid := page.ID(rng.Intn(80))
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
					e.Commit(p, tx)
					if i%40 == 39 {
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
				for pid := page.ID(0); pid < 80; pid++ {
					f, err := e.Get(p, pid)
					if err != nil {
						t.Fatal(err)
					}
					exp, ok := want[pid]
					if !ok {
						exp = make([]byte, cfg.PayloadSize)
					}
					if !bytes.Equal(f.Pg.Payload, exp) {
						t.Errorf("page %d mismatch", pid)
					}
				}
			})
		})
	}
}

// TestFuzzyRestartCostsMoreRedo pins the §2.3.3 tradeoff: after identical
// workloads and one checkpoint, fuzzy recovery replays more records than
// sharp recovery.
func TestFuzzyRestartCostsMoreRedo(t *testing.T) {
	redoWork := func(fuzzy bool) int64 {
		cfg := testConfig(ssd.LC)
		cfg.PoolPages = 8
		cfg.DirtyFraction = 0.9
		cfg.FuzzyCheckpoints = fuzzy
		env, e := start(t, cfg)
		defer finish(env, e)
		var applied int64
		drive(t, env, e, func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(4))
			tx := e.Begin()
			for i := 0; i < 150; i++ {
				e.Update(p, tx, page.ID(rng.Intn(60)), func(pl []byte) { pl[0]++ })
			}
			e.Commit(p, tx)
			if err := e.Checkpoint(p); err != nil {
				t.Fatal(err)
			}
			tx2 := e.Begin()
			for i := 0; i < 20; i++ {
				e.Update(p, tx2, page.ID(rng.Intn(60)), func(pl []byte) { pl[0]++ })
			}
			e.Commit(p, tx2)
			e.Crash()
			if err := e.Recover(p); err != nil {
				t.Fatal(err)
			}
			applied = e.Stats().RedoApplied + e.Stats().RedoSkipped
		})
		return applied
	}
	sharp := redoWork(false)
	fuzzy := redoWork(true)
	if fuzzy <= sharp {
		t.Errorf("fuzzy redo visited %d records, sharp %d; fuzzy must revisit the pre-checkpoint tail", fuzzy, sharp)
	}
}
