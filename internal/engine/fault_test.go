package engine

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"turbobp/internal/fault"
	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
)

// faultTestPages is the hot set the fault tests update. It exceeds the pool
// so evictions (and therefore SSD and disk traffic) happen under fault.
const faultTestPages = 48

// faultRig drives an engine with self-verifying counters under fault
// injection: payload[0:8] is a per-page update counter; applied tracks every
// update, committed only acknowledged ones.
type faultRig struct {
	t         *testing.T
	e         *Engine
	inj       *fault.Injector
	rng       uint64
	applied   []uint64
	committed []uint64
}

func newFaultRig(t *testing.T, design ssd.Design, opts ...func(*Config)) (*sim.Env, *faultRig) {
	cfg := testConfig(design)
	cfg.PoolPages = 16
	cfg.DirtyFraction = 0.9 // keep LC's uniquely-dirty SSD set populated
	inj := fault.New(0xFA17)
	cfg.Faults = inj
	for _, opt := range opts {
		opt(&cfg)
	}
	env, e := start(t, cfg)
	return env, &faultRig{
		t:         t,
		e:         e,
		inj:       inj,
		rng:       0xFA17,
		applied:   make([]uint64, faultTestPages),
		committed: make([]uint64, faultTestPages),
	}
}

func (r *faultRig) rand() uint64 {
	r.rng += 0x9E3779B97F4A7C15
	z := r.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// round updates 8 random hot pages, reads 4 more (the reads leave pages
// clean — CW and TAC need clean pages to cache anything) and commits. It
// returns true if an armed crash point interrupted the commit.
func (r *faultRig) round(p *sim.Proc) bool {
	tx := r.e.Begin()
	for i := 0; i < 12; i++ {
		pid := page.ID(r.rand() % faultTestPages)
		if i%3 == 2 {
			if _, err := r.e.Get(p, pid); err != nil {
				r.t.Fatalf("read: %v", err)
			}
			continue
		}
		err := r.e.Update(p, tx, pid, func(pl []byte) {
			c := binary.LittleEndian.Uint64(pl[0:8]) + 1
			binary.LittleEndian.PutUint64(pl[0:8], c)
			r.applied[pid] = c
		})
		if err != nil {
			r.t.Fatalf("update: %v", err)
		}
	}
	err := r.e.Commit(p, tx)
	if err == nil {
		copy(r.committed, r.applied)
		return false
	}
	if errors.Is(err, fault.ErrCrashPoint) {
		return true
	}
	r.t.Fatalf("commit: %v", err)
	return false
}

// verify checks every hot page's counter lies in [lo, hi] and resyncs the
// model to the observed state.
func (r *faultRig) verify(p *sim.Proc, lo, hi []uint64) {
	for pid := int64(0); pid < faultTestPages; pid++ {
		f, err := r.e.Get(p, page.ID(pid))
		if err != nil {
			r.t.Fatalf("verify read %d: %v", pid, err)
		}
		c := binary.LittleEndian.Uint64(f.Pg.Payload[0:8])
		if c < lo[pid] || c > hi[pid] {
			r.t.Errorf("page %d: counter %d outside [%d, %d]", pid, c, lo[pid], hi[pid])
		}
		r.applied[pid] = c
		r.committed[pid] = c
	}
}

func (r *faultRig) verifyExact(p *sim.Proc) { r.verify(p, r.applied, r.applied) }

func (r *faultRig) crashRecover(p *sim.Proc) {
	r.e.Crash()
	if err := r.e.Recover(p); err != nil {
		r.t.Fatalf("recover: %v", err)
	}
}

// TestCommitCrashPoints: a crash before the commit's log force loses at most
// the unacknowledged transaction; a crash after it loses nothing — for every
// design.
func TestCommitCrashPoints(t *testing.T) {
	cases := []struct {
		site  fault.Site
		exact bool // the crashed round is fully durable
	}{
		{fault.SitePreWALFlush, false},
		{fault.SitePostWALFlush, true},
	}
	for _, design := range []ssd.Design{ssd.CW, ssd.DW, ssd.LC, ssd.TAC} {
		for _, tc := range cases {
			t.Run(design.String()+"/"+string(tc.site), func(t *testing.T) {
				env, r := newFaultRig(t, design)
				defer finish(env, r.e)
				drive(t, env, r.e, func(p *sim.Proc) {
					r.inj.ArmCrash(tc.site, 5)
					crashed := false
					for i := 0; i < 10 && !crashed; i++ {
						crashed = r.round(p)
					}
					if !crashed {
						t.Fatal("crash site never fired")
					}
					r.crashRecover(p)
					if tc.exact {
						// Durable but unacknowledged: the crashed round
						// must be fully recovered.
						r.verify(p, r.applied, r.applied)
					} else {
						// Evictions may have forced part of the crashed
						// round's log; nothing committed may be missing.
						r.verify(p, r.committed, r.applied)
					}
					if r.round(p) {
						t.Fatal("crash point fired twice")
					}
					r.verifyExact(p)
				})
			})
		}
	}
}

// TestCheckpointCrashPoints: a crash mid-checkpoint (pages flushed, record
// unlogged) recovers from the previous checkpoint; a crash after the record
// is durable recovers from the new one. Committed data survives either way.
func TestCheckpointCrashPoints(t *testing.T) {
	for _, design := range []ssd.Design{ssd.CW, ssd.DW, ssd.LC, ssd.TAC} {
		for _, site := range []fault.Site{fault.SiteMidCheckpoint, fault.SitePostCheckpoint} {
			t.Run(design.String()+"/"+string(site), func(t *testing.T) {
				env, r := newFaultRig(t, design)
				defer finish(env, r.e)
				drive(t, env, r.e, func(p *sim.Proc) {
					for i := 0; i < 5; i++ {
						r.round(p)
					}
					if err := r.e.Checkpoint(p); err != nil {
						t.Fatalf("clean checkpoint: %v", err)
					}
					for i := 0; i < 3; i++ {
						r.round(p)
					}
					r.inj.ArmCrash(site, 1)
					if err := r.e.Checkpoint(p); !errors.Is(err, fault.ErrCrashPoint) {
						t.Fatalf("checkpoint err = %v, want ErrCrashPoint", err)
					}
					r.crashRecover(p)
					r.verifyExact(p)
					// The engine must checkpoint normally after recovery.
					if err := r.e.Checkpoint(p); err != nil {
						t.Fatalf("post-recovery checkpoint: %v", err)
					}
					r.round(p)
					r.verifyExact(p)
				})
			})
		}
	}
}

// TestLazyCleanerCrashPoint: crashing the LC cleaner between its SSD reads
// and its disk write leaves the SSD holding the only up-to-date copies;
// WAL-based recovery must still restore every committed update.
func TestLazyCleanerCrashPoint(t *testing.T) {
	env, r := newFaultRig(t, ssd.LC, func(cfg *Config) {
		cfg.DirtyFraction = 0.05 // wake the cleaner early
	})
	defer finish(env, r.e)
	drive(t, env, r.e, func(p *sim.Proc) {
		r.inj.ArmCrash(fault.SiteMidLazyClean, 1)
		for i := 0; i < 60 && !r.inj.Fired(); i++ {
			r.round(p)
			p.Sleep(20 * time.Millisecond) // cleaner airtime
		}
		if !r.inj.Fired() {
			t.Fatal("cleaner crash site never fired")
		}
		r.crashRecover(p)
		r.verifyExact(p)
	})
}

// TestSSDLossLive: a whole-SSD failure during forward processing must lose
// nothing. Only LC has uniquely-dirty SSD pages to rebuild from the WAL.
func TestSSDLossLive(t *testing.T) {
	for _, design := range []ssd.Design{ssd.CW, ssd.DW, ssd.LC, ssd.TAC} {
		t.Run(design.String(), func(t *testing.T) {
			env, r := newFaultRig(t, design)
			defer finish(env, r.e)
			drive(t, env, r.e, func(p *sim.Proc) {
				for i := 0; i < 10; i++ {
					r.round(p)
					p.Sleep(5 * time.Millisecond)
				}
				r.inj.FailDeviceNow("ssd")
				for i := 0; i < 20; i++ {
					r.round(p)
					p.Sleep(5 * time.Millisecond)
				}
				st := r.e.Stats()
				if st.SSDLosses != 1 {
					t.Errorf("SSDLosses = %d, want 1", st.SSDLosses)
				}
				if design != ssd.LC && st.SSDLossRedo != 0 {
					t.Errorf("%s: SSDLossRedo = %d, want 0", design, st.SSDLossRedo)
				}
				r.verifyExact(p)
			})
		})
	}
}

// TestSSDLossRedoLC: with the cleaner off, LC accumulates uniquely-dirty SSD
// pages; losing the SSD then forces WAL redo, and no committed update is
// lost.
func TestSSDLossRedoLC(t *testing.T) {
	env, r := newFaultRig(t, ssd.LC)
	defer finish(env, r.e)
	drive(t, env, r.e, func(p *sim.Proc) {
		r.e.SSD().StopCleaner() // let dirty SSD pages pile up
		for i := 0; i < 20; i++ {
			r.round(p)
		}
		if got := len(r.e.SSD().DirtyPageIDs()); got == 0 {
			t.Fatal("no uniquely-dirty SSD pages to lose; test is vacuous")
		}
		r.inj.FailDeviceNow("ssd")
		for i := 0; i < 10; i++ {
			r.round(p)
		}
		st := r.e.Stats()
		if st.SSDLosses != 1 {
			t.Errorf("SSDLosses = %d, want 1", st.SSDLosses)
		}
		if st.SSDLossRedo == 0 {
			t.Error("SSDLossRedo = 0: dirty SSD pages were not rebuilt from the WAL")
		}
		r.verifyExact(p)
	})
}

// TestSSDIOErrorsAbsorbed: transient injected read/write errors degrade to
// disk traffic without data loss for every design.
func TestSSDIOErrorsAbsorbed(t *testing.T) {
	for _, design := range []ssd.Design{ssd.CW, ssd.DW, ssd.LC, ssd.TAC} {
		t.Run(design.String(), func(t *testing.T) {
			env, r := newFaultRig(t, design)
			defer finish(env, r.e)
			drive(t, env, r.e, func(p *sim.Proc) {
				for k := 0; k < 5; k++ {
					r.inj.ErrorRead("ssd", k*8+int(r.inj.Rand()%6))
					r.inj.ErrorWrite("ssd", int(r.inj.Rand()%40))
				}
				for i := 0; i < 30; i++ {
					r.round(p)
					p.Sleep(2 * time.Millisecond)
				}
				r.verifyExact(p)
			})
		})
	}
}

// TestDiskReadErrorRetriedOnce: the engine's database device, wrapped
// outside the fault injector, re-issues a transient read error once,
// 100 µs later, so a page fetch survives one error and fails with the
// second of two in a row.
func TestDiskReadErrorRetriedOnce(t *testing.T) {
	cfg := testConfig(ssd.NoSSD)
	inj := fault.New(1)
	cfg.Faults = inj
	env, e := start(t, cfg)
	defer finish(env, e)
	drive(t, env, e, func(p *sim.Proc) {
		if _, err := e.Get(p, 1); err != nil {
			t.Fatal(err)
		}
		clean := -p.Now()
		if _, err := e.Get(p, 3); err != nil {
			t.Fatal(err)
		}
		clean += p.Now()
		inj.ErrorRead("db", inj.Reads("db"))
		retried := -p.Now()
		if _, err := e.Get(p, 5); err != nil {
			t.Fatalf("one transient error: %v", err)
		}
		retried += p.Now()
		if retried != clean+100*time.Microsecond {
			t.Errorf("fetch with one retry took %v, without %v: want 100µs more", retried, clean)
		}
		n := inj.Reads("db")
		inj.ErrorRead("db", n)
		inj.ErrorRead("db", n+1)
		if _, err := e.Get(p, 7); !errors.Is(err, fault.ErrInjectedIO) {
			t.Fatalf("two transient errors: Get = %v, want ErrInjectedIO", err)
		}
		if got := inj.Reads("db") - n; got != 2 {
			t.Errorf("two transient errors: %d attempts, want 2", got)
		}
	})
}
