package turbobp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"turbobp/internal/engine"
)

// dbLat reaches the engine's latency histograms for assertions.
func dbLat(db *DB) *engine.Latencies { return db.parts[0].eng.Latencies() }

func openTest(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.DBPages == 0 {
		opts.DBPages = 256
	}
	if opts.PoolPages == 0 {
		opts.PoolPages = 16
	}
	if opts.PageSize == 0 {
		opts.PageSize = 64
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestOpenRequiresDBPages(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open with no DBPages succeeded")
	}
}

// TestOpenRejectsUnknownPolicy: a CachePolicy or Design value outside the
// named constants is an error from Open, naming the option, not a database
// built under some policy or design.
func TestOpenRejectsUnknownPolicy(t *testing.T) {
	for _, tc := range []struct {
		name, option string
		opts         Options
	}{
		{"policy", "Options.Policy", Options{Policy: PolicyCFLRU + 1}},
		{"design-above", "Options.Design", Options{Design: TAC + 1}},
		{"design-negative", "Options.Design", Options{Design: NoSSD - 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.DBPages = 64
			_, err := Open(tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.option) {
				t.Fatalf("Open = %v, want an error naming %s", err, tc.option)
			}
		})
	}
}

// TestSimulatedOpenIsPoolSized: at the benchmark's geometry the simulated
// backend's memory after Open is the pool and the SSD tier's bookkeeping,
// not the database — a formatted page costs memory only once written. An
// eagerly materialised image of 65 536 encoded pages alone is ~23 MB.
// Measured on a 2-core x86-64 box: Open grew the heap 3.47 MB with the SSD
// tier's 72-byte frame records and []int free lists, 2.97 MB with 48-byte
// records and pre-sized []int32 free lists; the bound is that plus 0.28 MB.
func TestSimulatedOpenIsPoolSized(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db, err := Open(Options{Design: LC, Policy: PolicyLRU2,
		DBPages: 65536, PoolPages: 4096, SSDFrames: 16384, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(db)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("Open grew the heap by %.3f MB", float64(grown)/(1<<20))
	if grown >= 3<<20+256<<10 {
		t.Errorf("Open grew the heap by %.2f MB, want < 3.25 MB", float64(grown)/(1<<20))
	}
}

// TestWarmSSDTierHeap: at the benchmark's geometry, with the SSD tier filled
// by a srv_read_cold-shaped warm-up (80 % of the reads on every fifth page,
// enough evictions to fill all 16 384 frames), the heap the database keeps
// is the pool, the SSD tier's frame table and the pages the simulated
// devices hold. Measured on a 2-core x86-64 box: the heap grew 9.90 MB with
// the frame table's 72-byte records and a page store that kept each page in
// an allocation of its own behind a 24-byte slice header, 9.08 MB with the
// packed 48-byte records and the chunked store, 7.76 MB once the SSD tier's
// LRU-2 heaps held frame indices instead of copies of each frame's history
// in a separate cache, and 7.36 MB once the pool's did too; the bound is
// 7.75 MB.
func TestWarmSSDTierHeap(t *testing.T) {
	const dbPages, hotStride = 65536, 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db, err := Open(Options{Design: LC, Policy: PolicyLRU2,
		DBPages: dbPages, PoolPages: 4096, SSDFrames: 16384, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := rand.New(rand.NewSource(1))
	hot := (dbPages + hotStride - 1) / hotStride
	buf := make([]byte, 256)
	for i := 0; i < 60000; i++ {
		pid := int64(hotStride * r.Intn(hot))
		if r.Intn(100) >= 80 {
			j := r.Intn(dbPages - hot)
			pid = int64(j/(hotStride-1)*hotStride + 1 + j%(hotStride-1))
		}
		if _, err := db.Read(pid, buf); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.parts[0].eng.SSD().Occupied(); n != 16384 {
		t.Fatalf("warm-up left %d of 16384 SSD frames occupied", n)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(db)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("Open and the warm-up grew the heap by %.3f MB", float64(grown)/(1<<20))
	if grown >= 7<<20+768<<10 {
		t.Errorf("Open and the warm-up grew the heap by %.2f MB, want < 7.75 MB", float64(grown)/(1<<20))
	}
}

// TestReadHotHeap: at the benchmark's geometry, after srv_read_hot's
// warm-up (its 2048 pages 32·k read twice, in order), the heap the database
// keeps is the pool and the SSD tier's bookkeeping. Measured on a 2-core
// x86-64 box: the heap grew 3.67 MB while the pool kept its pages' LRU-2
// histories in a separate cache (an int32 key index per database page, a
// 32-byte entry and a 32-byte heap node per frame), and 3.26 MB with the
// histories in the frame table and a heap of frame indices; the bound is
// 3.5 MB.
func TestReadHotHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db, err := Open(Options{Design: LC, Policy: PolicyLRU2,
		DBPages: 65536, PoolPages: 4096, SSDFrames: 16384, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	buf := make([]byte, 256)
	for i := 0; i < 2*2048; i++ {
		if _, err := db.Read(32*int64(i%2048), buf); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(db)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("Open and the warm-up grew the heap by %.3f MB", float64(grown)/(1<<20))
	if grown >= 3<<20+512<<10 {
		t.Errorf("Open and the warm-up grew the heap by %.2f MB, want < 3.5 MB", float64(grown)/(1<<20))
	}
}

func TestReadFreshPageIsZero(t *testing.T) {
	db := openTest(t, Options{Design: LC})
	buf := make([]byte, 64)
	n, err := db.Read(10, buf)
	if err != nil || n != 64 {
		t.Fatalf("Read = (%d,%v)", n, err)
	}
	if !bytes.Equal(buf, make([]byte, 64)) {
		t.Error("fresh page not zero")
	}
}

func TestUpdateThenRead(t *testing.T) {
	db := openTest(t, Options{Design: LC})
	if err := db.Update(3, func(pl []byte) { copy(pl, "hello") }); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := db.Read(3, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Errorf("read %q", buf)
	}
}

func TestTransactionCommit(t *testing.T) {
	db := openTest(t, Options{Design: DW})
	tx := db.Begin()
	for i := int64(0); i < 5; i++ {
		i := i
		if err := tx.Update(i, func(pl []byte) { pl[0] = byte(i + 1) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	for i := int64(0); i < 5; i++ {
		db.Read(i, buf)
		if buf[0] != byte(i+1) {
			t.Errorf("page %d = %d", i, buf[0])
		}
	}
}

func TestScanVisitsAllPages(t *testing.T) {
	db := openTest(t, Options{Design: DW, PoolPages: 64})
	for i := int64(20); i < 30; i++ {
		i := i
		db.Update(i, func(pl []byte) { pl[0] = byte(i) })
	}
	var seen []int64
	err := db.Scan(20, 10, func(pid int64, payload []byte) error {
		if payload[0] != byte(pid) {
			t.Errorf("page %d payload %d", pid, payload[0])
		}
		seen = append(seen, pid)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 10 || seen[0] != 20 || seen[9] != 29 {
		t.Errorf("seen = %v", seen)
	}
}

func TestScanCallbackErrorPropagates(t *testing.T) {
	db := openTest(t, Options{Design: NoSSD})
	boom := errors.New("boom")
	err := db.Scan(0, 4, func(pid int64, _ []byte) error {
		if pid == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestCrashRecoverDurability(t *testing.T) {
	for _, design := range []Design{NoSSD, CW, DW, LC, TAC} {
		t.Run(design.String(), func(t *testing.T) {
			db := openTest(t, Options{Design: design, PoolPages: 8})
			for i := int64(0); i < 30; i++ {
				i := i
				if err := db.Update(i, func(pl []byte) { pl[0] = byte(i + 100) }); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Crash(); err != nil {
				t.Fatal(err)
			}
			if err := db.Recover(); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 1)
			for i := int64(0); i < 30; i++ {
				if _, err := db.Read(i, buf); err != nil {
					t.Fatal(err)
				}
				if buf[0] != byte(i+100) {
					t.Errorf("page %d = %d after recovery", i, buf[0])
				}
			}
		})
	}
}

func TestCheckpointTruncatesRecoveryWork(t *testing.T) {
	db := openTest(t, Options{Design: LC})
	for i := int64(0); i < 10; i++ {
		db.Update(i, func(pl []byte) { pl[0] = 1 })
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.Checkpoints != 1 {
		t.Errorf("Checkpoints = %d", s.Checkpoints)
	}
	db.Crash()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	db.Read(5, buf)
	if buf[0] != 1 {
		t.Error("update lost despite checkpoint")
	}
}

func TestStatsProgress(t *testing.T) {
	db := openTest(t, Options{Design: DW, PoolPages: 8})
	for i := int64(0); i < 40; i++ {
		db.Update(i%20, func(pl []byte) { pl[0]++ })
	}
	s := db.Stats()
	if s.Design != DW {
		t.Errorf("Design = %v", s.Design)
	}
	if s.Updates != 40 || s.Commits != 40 {
		t.Errorf("Updates/Commits = %d/%d", s.Updates, s.Commits)
	}
	if s.PoolMisses == 0 || s.DiskReads == 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.VirtualTime <= 0 {
		t.Error("virtual clock did not advance")
	}
}

func TestSSDCachingVisibleInStats(t *testing.T) {
	db := openTest(t, Options{Design: LC, PoolPages: 8, SSDFrames: 64})
	// Touch more pages than the pool holds, twice: the second pass should
	// hit the SSD.
	for pass := 0; pass < 2; pass++ {
		for i := int64(0); i < 32; i++ {
			buf := make([]byte, 1)
			if _, err := db.Read(i, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := db.Stats()
	if s.SSDHits == 0 {
		t.Errorf("no SSD hits: %+v", s)
	}
	if s.SSDOccupied == 0 {
		t.Error("SSD empty")
	}
}

func TestFileBackend(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, Options{Design: LC, Dir: dir, DBPages: 128, PoolPages: 8, SSDFrames: 32, PageSize: 128})
	for i := int64(0); i < 64; i++ {
		i := i
		if err := db.Update(i, func(pl []byte) {
			pl[0] = byte(i)
			copy(pl[1:], fmt.Sprintf("page-%d", i))
		}); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 128)
	for i := int64(0); i < 64; i++ {
		if _, err := db.Read(i, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Errorf("page %d first byte %d", i, buf[0])
		}
	}
	s := db.Stats()
	if s.DiskReads == 0 && s.SSDReads == 0 {
		t.Errorf("no device traffic recorded: %+v", s)
	}
}

func TestFileBackendCrashRecover(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, Options{Design: LC, Dir: dir, DBPages: 64, PoolPages: 4, PageSize: 64})
	for i := int64(0); i < 32; i++ {
		i := i
		db.Update(i, func(pl []byte) { pl[0] = byte(i * 3) })
	}
	db.Crash()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	for i := int64(0); i < 32; i++ {
		db.Read(i, buf)
		if buf[0] != byte(i*3) {
			t.Errorf("page %d = %d", i, buf[0])
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	db := openTest(t, Options{Design: DW, DBPages: 512, PoolPages: 32})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				pid := rng.Int63n(512)
				if rng.Intn(2) == 0 {
					if err := db.Update(pid, func(pl []byte) { pl[0]++ }); err != nil {
						errs <- err
						return
					}
				} else if _, err := db.Read(pid, make([]byte, 4)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := db.Stats().Reads; got == 0 {
		t.Error("no reads recorded")
	}
}

func TestAllDesignsSmoke(t *testing.T) {
	for _, design := range []Design{NoSSD, CW, DW, LC, TAC} {
		t.Run(design.String(), func(t *testing.T) {
			db := openTest(t, Options{Design: design, PoolPages: 8, SSDFrames: 32})
			for i := int64(0); i < 64; i++ {
				i := i
				if err := db.Update(i%48, func(pl []byte) { pl[0] = byte(i) }); err != nil {
					t.Fatal(err)
				}
				if _, err := db.Read((i*7)%48, make([]byte, 1)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLatencySummary(t *testing.T) {
	db := openTest(t, Options{Design: LC, PoolPages: 8})
	for i := int64(0); i < 40; i++ {
		db.Update(i%30, func(pl []byte) { pl[0]++ })
		db.Read((i*3)%30, make([]byte, 4))
	}
	s := db.LatencySummary()
	for _, want := range []string{"pool-hit", "ssd-hit", "disk-read", "commit"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q: %s", want, s)
		}
	}
	// Disk reads must be slower than pool hits under the simulated devices.
	l := dbLat(db)
	if l.DiskRead.Count() == 0 || l.PoolHit.Count() == 0 {
		t.Fatalf("missing samples: %s", s)
	}
	if l.DiskRead.Mean() <= l.PoolHit.Mean() {
		t.Errorf("disk mean %v <= pool mean %v", l.DiskRead.Mean(), l.PoolHit.Mean())
	}
}

func TestFuzzyCheckpointOption(t *testing.T) {
	db := openTest(t, Options{Design: LC, FuzzyCheckpoints: true, PoolPages: 8})
	for i := int64(0); i < 20; i++ {
		db.Update(i, func(pl []byte) { pl[0] = byte(i + 1) })
	}
	before := db.Stats().DiskWrites
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A fuzzy checkpoint flushes nothing (only the log record).
	if got := db.Stats().DiskWrites; got != before {
		t.Errorf("fuzzy checkpoint wrote %d pages to disk", got-before)
	}
	db.Crash()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	for i := int64(0); i < 20; i++ {
		db.Read(i, buf)
		if buf[0] != byte(i+1) {
			t.Errorf("page %d = %d after fuzzy-checkpoint recovery", i, buf[0])
		}
	}
}

func TestWarmRestartOption(t *testing.T) {
	db := openTest(t, Options{Design: DW, WarmRestart: true, PoolPages: 8, SSDFrames: 64})
	for i := int64(0); i < 40; i++ {
		db.Read(i, make([]byte, 4))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().SSDOccupied == 0 {
		t.Error("warm restart restored nothing")
	}
}

// TestWarmRestartReopenStartsCold pins what WarmRestart does across a
// process boundary today: nothing. A reopened directory formats a fresh SSD
// file, so the SSD tier starts empty even after a checkpoint that recorded
// its buffer table.
func TestWarmRestartReopenStartsCold(t *testing.T) {
	opts := Options{Design: DW, WarmRestart: true, DBPages: 256, PoolPages: 8, SSDFrames: 64,
		PageSize: 64, Dir: t.TempDir()}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	for i := int64(0); i < 40; i++ {
		if _, err := db.Read(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().SSDOccupied == 0 {
		t.Fatal("the SSD holds no frames before Close")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	opts.OpenExisting = true
	db, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n := db.Stats().SSDOccupied; n != 0 {
		t.Errorf("SSDOccupied = %d after a reopen, want 0 (cold SSD)", n)
	}
}
