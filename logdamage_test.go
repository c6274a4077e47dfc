package turbobp

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"turbobp/internal/wal"
)

// damageFixture is an abandoned file-backed directory: one partition, LC,
// every commit fsynced, pages 0..damageCommits-1 updated once each (page
// pid holds pid+1) and the process killed with no checkpoint or Close.
// Each commit is one log flight: its update and commit records at the
// start of its own 8 KB page of wal.log.
type damageFixture struct {
	opts  Options
	saved map[string][]byte // file name -> contents (wal.log: its used prefix)
}

const (
	damageCommits = 40
	walPrefix     = 64 * 8192 // covers every page the fixture or a reopen writes
)

func newDamageFixture(t *testing.T) *damageFixture {
	t.Helper()
	opts := Options{
		DBPages: 64, PageSize: 64, PoolPages: 16, Design: LC,
		Dir: t.TempDir(), Concurrency: 1, CommitSync: CommitSyncEach,
	}
	db := mustOpen(t, opts)
	for pid := int64(0); pid < damageCommits; pid++ {
		writePage(t, db, pid, byte(pid+1))
	}
	killForTest(db)
	opts.OpenExisting = true
	f := &damageFixture{opts: opts, saved: map[string][]byte{}}
	ents, err := os.ReadDir(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		f.saved[e.Name()] = f.read(t, e.Name())
	}
	return f
}

// read returns a file's contents; for the sparse wal.log, its first
// walPrefix bytes.
func (f *damageFixture) read(t *testing.T, name string) []byte {
	t.Helper()
	path := filepath.Join(f.opts.Dir, name)
	if name != "wal.log" {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	b := make([]byte, walPrefix)
	if _, err := fh.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

// restore puts every file back as the kill left it, with wal.log's prefix
// replaced by log.
func (f *damageFixture) restore(t *testing.T, log []byte) {
	t.Helper()
	for name, b := range f.saved {
		fh, err := os.OpenFile(filepath.Join(f.opts.Dir, name), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if name == "wal.log" {
			b = log
		} else if err := fh.Truncate(int64(len(b))); err != nil {
			t.Fatal(err)
		}
		if _, err := fh.WriteAt(b, 0); err != nil {
			t.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// flight returns the byte range of commit i's records in wal.log.
func (f *damageFixture) flight(t *testing.T, i int) (start, end int) {
	t.Helper()
	log := f.saved["wal.log"]
	start = i * 8192
	end = start
	for {
		_, sz, err := wal.DecodeRecord(log[end:])
		if err != nil {
			break
		}
		end += sz
	}
	if end == start {
		t.Fatalf("no records in flight %d", i)
	}
	return start, end
}

// TestLogDamageEveryOffset flips each byte of the first flight's records in
// turn. Commits 2..40 are still on the log, so the failed record is not a
// torn tail: the reopen must fail with ErrLogDamaged, name wal.log and the
// offset, and leave the log exactly as it found it.
func TestLogDamageEveryOffset(t *testing.T) {
	f := newDamageFixture(t)
	start, end := f.flight(t, 0)
	for off := start; off < end; off++ {
		log := bytes.Clone(f.saved["wal.log"])
		log[off] ^= 0x01
		f.restore(t, log)
		db, err := Open(f.opts)
		if err == nil {
			killForTest(db)
			t.Fatalf("byte %d flipped: reopen succeeded, want ErrLogDamaged", off)
		}
		if !errors.Is(err, ErrLogDamaged) {
			t.Fatalf("byte %d flipped: err = %v, want ErrLogDamaged", off, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "wal.log") || !strings.Contains(msg, "byte "+strconv.Itoa(start)) {
			t.Fatalf("byte %d flipped: error %q names no wal.log offset", off, msg)
		}
		if !bytes.Equal(f.read(t, "wal.log"), log) {
			t.Fatalf("byte %d flipped: the failed reopen changed wal.log", off)
		}
	}
}

// TestTornLastFlightEveryOffset cuts the last flight at each byte of its
// records, zeroing the rest as a write torn by a kill leaves it. That is a
// real torn tail: the reopen must succeed with every earlier acked commit
// intact, and the cut commit applied only if its records survived (a cut
// inside trailing zero bytes changes nothing).
func TestTornLastFlightEveryOffset(t *testing.T) {
	f := newDamageFixture(t)
	start, end := f.flight(t, damageCommits-1)
	for cut := start; cut <= end; cut++ {
		log := bytes.Clone(f.saved["wal.log"])
		clear(log[cut:end])
		f.restore(t, log)
		db, err := Open(f.opts)
		if err != nil {
			t.Fatalf("cut at byte %d: reopen: %v", cut, err)
		}
		for pid := int64(0); pid < damageCommits-1; pid++ {
			wantFill(t, db, pid, byte(pid+1), "cut at byte "+strconv.Itoa(cut))
		}
		last := byte(0)
		if bytes.Equal(log, f.saved["wal.log"]) {
			last = damageCommits
		}
		wantFill(t, db, damageCommits-1, last, "cut at byte "+strconv.Itoa(cut))
		killForTest(db)
	}
}

// coordDecisions is the number of commit decisions coordFixture writes.
const coordDecisions = 5

// coordFixture writes a fresh coordinator log holding commit decisions for
// global transactions 1..coordDecisions and returns its path and bytes.
func coordFixture(t *testing.T) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "txn.log")
	cl, err := openCoordLog(path, true, false)
	if err != nil {
		t.Fatal(err)
	}
	for gtx := uint64(1); gtx <= coordDecisions; gtx++ {
		if err := cl.logCommit(gtx); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, b
}

// TestCoordLogDamageEveryOffset flips each byte of the first decision in
// txn.log. Four decisions follow it, so the failed record is not a torn
// tail: the open must fail with ErrLogDamaged, name txn.log and byte 0, and
// leave the file exactly as it found it.
func TestCoordLogDamageEveryOffset(t *testing.T) {
	path, saved := coordFixture(t)
	_, first, err := wal.DecodeRecord(saved)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < first; off++ {
		log := bytes.Clone(saved)
		log[off] ^= 0x01
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		cl, err := openCoordLog(path, false, false)
		if err == nil {
			cl.close()
			t.Fatalf("byte %d flipped: open succeeded with %d of %d decisions, want ErrLogDamaged",
				off, len(cl.committed), coordDecisions)
		}
		if !errors.Is(err, ErrLogDamaged) {
			t.Fatalf("byte %d flipped: err = %v, want ErrLogDamaged", off, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "txn.log") || !strings.Contains(msg, "byte 0 ") {
			t.Fatalf("byte %d flipped: error %q names no txn.log offset", off, msg)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, log) {
			t.Fatalf("byte %d flipped: the failed open changed txn.log (%v)", off, err)
		}
	}
}

// TestCoordLogTornLastDecisionEveryOffset cuts the last decision at each
// byte, once truncated and once zero-filled to the original length, as a
// write torn by a kill leaves it. That is a real torn tail: the open must
// succeed with every earlier decision intact, the cut one kept only if it
// is whole, and the file truncated after the last intact record.
func TestCoordLogTornLastDecisionEveryOffset(t *testing.T) {
	path, saved := coordFixture(t)
	rec := len(saved) / coordDecisions
	start := len(saved) - rec
	for cut := start; cut <= len(saved); cut++ {
		for _, zeroFill := range []bool{false, true} {
			log := bytes.Clone(saved[:cut])
			if zeroFill {
				log = append(log, make([]byte, len(saved)-cut)...)
			}
			if err := os.WriteFile(path, log, 0o644); err != nil {
				t.Fatal(err)
			}
			cl, err := openCoordLog(path, false, false)
			if err != nil {
				t.Fatalf("cut at byte %d (zero-filled %v): open: %v", cut, zeroFill, err)
			}
			whole := bytes.Equal(log, saved) // a cut inside trailing zero bytes changes nothing
			for gtx := uint64(1); gtx <= coordDecisions; gtx++ {
				if got, want := cl.isCommitted(gtx), gtx < coordDecisions || whole; got != want {
					t.Errorf("cut at byte %d (zero-filled %v): decision %d kept = %v, want %v",
						cut, zeroFill, gtx, got, want)
				}
			}
			cl.close()
			want := start
			if whole {
				want = len(saved)
			}
			if got, err := os.ReadFile(path); err != nil || len(got) != want {
				t.Fatalf("cut at byte %d (zero-filled %v): txn.log is %d bytes, want %d (%v)",
					cut, zeroFill, len(got), want, err)
			}
		}
	}
}
