package engine

import (
	"path/filepath"
	"testing"

	"turbobp/internal/device"
	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
	"turbobp/internal/wal"
)

// testLogPages is the wal.log size of the file-backed test engines.
const testLogPages = 256

// fileDevices creates (or, with existing, reopens) a real-device engine's
// database and log files in dir; the test closes them when it ends.
func fileDevices(t *testing.T, dir string, cfg Config, existing bool) (db, log *device.File) {
	t.Helper()
	open := device.OpenFile
	if existing {
		open = device.OpenFileExisting
	}
	db, err := open(filepath.Join(dir, "db.pages"), page.HeaderSize+cfg.PayloadSize, device.PageNum(cfg.DBPages))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	log, err = open(filepath.Join(dir, "wal.log"), logPageSize, testLogPages)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return db, log
}

// startFiles is start for the real-device engine: fresh files in a
// temporary directory, no SSD.
func startFiles(t *testing.T, cfg Config) (*sim.Env, *Engine) {
	t.Helper()
	env := sim.NewEnv()
	db, log := fileDevices(t, t.TempDir(), cfg, false)
	e := NewWithDevices(env, cfg, db, nil, log)
	if err := e.FormatDB(); err != nil {
		t.Fatal(err)
	}
	return env, e
}

// TestConstructorsDecide pins what each constructor decides by itself. The
// model engine (New) keeps a timing-only log that nothing reloads, implies
// commits, charges CPU and serves every read through the owner's path. The
// real-device engine (NewWithDevices) persists its log, which a reopened
// engine reloads and recovers from, writes a commit record, charges and
// reports no CPU cost, and copies a resident page out under its stripe latch.
func TestConstructorsDecide(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(t *testing.T, dir string, cfg Config) (*sim.Env, *Engine)
		files bool
	}{
		{"New", func(t *testing.T, _ string, cfg Config) (*sim.Env, *Engine) {
			env := sim.NewEnv()
			return env, New(env, cfg)
		}, false},
		{"NewWithDevices", func(t *testing.T, dir string, cfg Config) (*sim.Env, *Engine) {
			env := sim.NewEnv()
			db, log := fileDevices(t, dir, cfg, false)
			return env, NewWithDevices(env, cfg, db, nil, log)
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := testConfig(ssd.NoSSD)
			env, e := c.build(t, dir, cfg)
			if err := e.FormatDB(); err != nil {
				t.Fatal(err)
			}
			drive(t, env, e, func(p *sim.Proc) {
				tx := e.Begin()
				if err := e.Update(p, tx, 7, func(pl []byte) { pl[0] = 0x7A }); err != nil {
					t.Fatal(err)
				}
				if err := e.Commit(p, tx); err != nil {
					t.Fatal(err)
				}
			})
			finish(env, e)

			commits := 0
			for _, r := range e.Log().Durable() {
				if r.Type == wal.TypeCommit {
					commits++
				}
			}
			if (commits == 1) != c.files || commits > 1 {
				t.Errorf("%d commit records on the log", commits)
			}
			if busy, cpu := e.Stats().CPUBusyNanos, e.Config().CPUPerAccess; (busy == 0) != c.files || (cpu == 0) != c.files {
				t.Errorf("CPUBusyNanos = %d, Config().CPUPerAccess = %v", busy, cpu)
			}
			buf := make([]byte, cfg.PayloadSize)
			if n, ok := e.Pool().ReadLatched(7, buf); ok != c.files || ok && (n != cfg.PayloadSize || buf[0] != 0x7A) {
				t.Errorf("ReadLatched(7) = %d, %v, byte %#x", n, ok, buf[0])
			}

			if !c.files {
				if err := e.Log().LoadDurable(); err == nil {
					t.Error("the model's log reloaded: it persists nothing to reload")
				}
				return
			}
			env2 := sim.NewEnv()
			db, log := fileDevices(t, dir, cfg, true)
			e2 := NewWithDevices(env2, cfg, db, nil, log)
			if err := e2.Log().LoadDurable(); err != nil {
				t.Fatal(err)
			}
			want, got := e.Log().Durable(), e2.Log().Durable()
			if len(got) != len(want) {
				t.Fatalf("reloaded %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].LSN != want[i].LSN || got[i].Type != want[i].Type || got[i].TxID != want[i].TxID {
					t.Fatalf("record %d reloaded as %+v, want %+v", i, got[i], want[i])
				}
			}
			drive(t, env2, e2, func(p *sim.Proc) {
				if err := e2.RecoverDurable(p); err != nil {
					t.Fatal(err)
				}
				f, err := e2.Get(p, 7)
				if err != nil {
					t.Fatal(err)
				}
				if f.Pg.Payload[0] != 0x7A {
					t.Errorf("page 7 after reopen = %#x, want the committed 0x7a", f.Pg.Payload[0])
				}
			})
			finish(env2, e2)
		})
	}
}
