package engine

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"turbobp/internal/device"
	"turbobp/internal/fault"
	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
)

// TestLazyFormatKeepsCorruptionVisible: a simulated disk synthesises a
// never-written page on read, yet damage to such a page is detected exactly
// as it would be on an eagerly formatted image — a bit flipped on the read
// fails the checksum, and a torn first write leaves the torn bytes, never
// the fill, for the next read to catch.
func TestLazyFormatKeepsCorruptionVisible(t *testing.T) {
	t.Run("bit-flip read", func(t *testing.T) {
		inj := fault.New(7)
		cfg := testConfig(ssd.NoSSD)
		cfg.Faults = inj
		env, e := start(t, cfg)
		defer finish(env, e)
		drive(t, env, e, func(p *sim.Proc) {
			inj.RotOnRead("db", inj.Reads("db"))
			_, err := e.Get(p, 9)
			if !errors.Is(err, page.ErrCorrupt) {
				t.Errorf("read of a flipped never-written page: err = %v, want ErrCorrupt", err)
			}
			if got := e.Stats().DiskCorruptions; got != 1 {
				t.Errorf("DiskCorruptions = %d, want 1", got)
			}
		})
	})
	t.Run("torn write", func(t *testing.T) {
		inj := fault.New(8)
		cfg := testConfig(ssd.NoSSD)
		cfg.Faults = inj
		env, e := start(t, cfg)
		defer finish(env, e)
		const pid = 5
		drive(t, env, e, func(p *sim.Proc) {
			tx := e.Begin()
			if err := e.Update(p, tx, pid, func(pl []byte) { pl[0] = 0x5A }); err != nil {
				t.Fatal(err)
			}
			if err := e.Commit(p, tx); err != nil {
				t.Fatal(err)
			}
			// The eviction below is the page's first write; it tears.
			inj.TearWrite("db", inj.Writes("db"), 12)
			for other := page.ID(100); other < 100+2*page.ID(cfg.PoolPages); other++ {
				if _, err := e.Get(p, other); err != nil {
					t.Fatal(err)
				}
			}
			if e.Pool().Peek(pid) != nil {
				t.Fatal("page still resident; the read below would not reach the disk")
			}
			f, err := e.Get(p, pid)
			if err != nil {
				t.Fatalf("read of the torn page: %v", err)
			}
			if f.Pg.Payload[0] != 0x5A {
				t.Errorf("torn page served %#x, want the committed 0x5a", f.Pg.Payload[0])
			}
			if st := e.Stats(); st.DiskCorruptions != 1 || st.DiskRepairsWAL != 1 {
				t.Errorf("DiskCorruptions=%d DiskRepairsWAL=%d, want 1 each",
					st.DiskCorruptions, st.DiskRepairsWAL)
			}
		})
	})
}

// TestFileFormatIsEager: on the file backend FormatDB writes every page's
// formatted image, since a hole in the file would read back as zeros.
func TestFileFormatIsEager(t *testing.T) {
	cfg := testConfig(ssd.NoSSD)
	size := page.HeaderSize + cfg.PayloadSize
	path := filepath.Join(t.TempDir(), "db.pages")
	f, err := device.OpenFile(path, size, device.PageNum(cfg.DBPages))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	env := sim.NewEnv()
	logDev := device.NewHDD(env, device.PaperHDDProfile(), 1<<20)
	logDev.DiscardContent()
	e := NewWithDevices(env, cfg, f, nil, logDev)
	if err := e.FormatDB(); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Load(); got != (device.Snapshot{}) {
		t.Errorf("FormatDB counted file I/O: %+v", got)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, int(cfg.DBPages)*size)
	zeros := make([]byte, cfg.PayloadSize)
	for pid := 0; pid < int(cfg.DBPages); pid++ {
		if err := page.Encode(&page.Page{ID: page.ID(pid), Payload: zeros}, want[pid*size:(pid+1)*size]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Error("db.pages differs from the eagerly encoded image")
	}
}
