package turbobp

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"turbobp/internal/fault"
)

// backend is one row of the backend matrix: every test that is not about a
// file-only feature (reopen, 2PC crash points, fsync counts) runs over all of
// them, because they are the same code with a different partition count.
type backend struct {
	name string
	file bool
	conc int
}

var backends = []backend{
	{"simulated", false, 0},
	{"file-P1", true, 1},
	{"file-P4", true, 4},
}

// open opens opts on the backend, in a fresh directory when it is file-backed.
func (b backend) open(t *testing.T, opts Options) *DB {
	t.Helper()
	if b.file {
		opts.Dir = t.TempDir()
		opts.Concurrency = b.conc
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", b.name, err)
	}
	return db
}

// openConcurrentDB opens a file-backed DB in partitioned mode for tests.
func openConcurrentDB(t *testing.T, pages int64, conc int, mode CommitSyncMode) *DB {
	t.Helper()
	return backend{"file", true, conc}.open(t, Options{
		Design: LC, DBPages: pages, PoolPages: 64, SSDFrames: 128, PageSize: 64, CommitSync: mode,
	})
}

// counterOf reads the test payload convention: an update counter in the
// first 8 payload bytes.
func counterOf(payload []byte) uint64 { return binary.LittleEndian.Uint64(payload) }

// TestConcurrentOracle drives a randomized mixed workload (get, update,
// multi-page tx, scan) from N goroutines against every backend and
// cross-checks it against a serialized oracle: per-page counters incremented
// under the engine's own serialization must end exactly equal to the number
// of committed updates, and no read may ever observe a counter above the
// number of updates started. Run under -race this also exercises the latch
// protocol end to end. The quiesced DB then walks the rest of the facade:
// scans, stats sums, checkpoint, crash + recover, close.
func TestConcurrentOracle(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) { testOracle(t, b) })
	}
}

func testOracle(t *testing.T, b backend) {
	const (
		pages   = 256
		workers = 8
		ops     = 300
	)
	db := b.open(t, Options{
		Design: LC, DBPages: pages, PoolPages: 64, SSDFrames: 128, PageSize: 64, CommitSync: CommitSyncGroup,
	})
	defer db.Close()
	bump := func(p []byte) { binary.LittleEndian.PutUint64(p, counterOf(p)+1) }

	var started, applied [pages]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			buf := make([]byte, db.PageSize())
			for i := 0; i < ops; i++ {
				pid := rng.Int63n(pages)
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // point read
					n, err := db.Read(pid, buf)
					if err != nil {
						t.Errorf("Read(%d): %v", pid, err)
						return
					}
					if n < 8 {
						t.Errorf("Read(%d): %d bytes", pid, n)
						return
					}
					if got, max := counterOf(buf), started[pid].Load(); int64(got) > max {
						t.Errorf("page %d: read counter %d > %d updates started", pid, got, max)
						return
					}
				case 4, 5, 6: // single-page committed update
					started[pid].Add(1)
					if err := db.Update(pid, bump); err != nil {
						t.Errorf("Update(%d): %v", pid, err)
						return
					}
					applied[pid].Add(1)
				case 7, 8: // multi-page transaction, usually cross-partition at P=4
					pid2 := rng.Int63n(pages)
					tx := db.Begin()
					started[pid].Add(1)
					started[pid2].Add(1)
					err := tx.Update(pid, bump)
					if err == nil {
						err = tx.Update(pid2, bump)
					}
					if err == nil {
						err = tx.Commit()
					}
					if err != nil {
						t.Errorf("tx(%d,%d): %v", pid, pid2, err)
						return
					}
					applied[pid].Add(1)
					applied[pid2].Add(1)
				case 9: // short scan
					n := 1 + rng.Intn(16)
					if pid+int64(n) > pages {
						n = int(pages - pid)
					}
					err := db.Scan(pid, n, func(sp int64, payload []byte) error {
						if got, max := counterOf(payload), started[sp].Load(); int64(got) > max {
							t.Errorf("page %d: scanned counter %d > %d started", sp, got, max)
						}
						return nil
					})
					if err != nil {
						t.Errorf("Scan(%d,%d): %v", pid, n, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesced: every page's counter must equal its committed updates.
	buf := make([]byte, db.PageSize())
	wantOracle := func(what string) {
		t.Helper()
		for pid := int64(0); pid < pages; pid++ {
			if _, err := db.Read(pid, buf); err != nil {
				t.Fatalf("%s Read(%d): %v", what, pid, err)
			}
			if got, want := int64(counterOf(buf)), applied[pid].Load(); got != want {
				t.Fatalf("%s: page %d counter %d, oracle %d", what, pid, got, want)
			}
		}
	}
	wantOracle("final")

	// A scan across the 64-page partition boundary of P=4 visits every page
	// once, in order; a range that leaves the database is refused.
	next := int64(60)
	err := db.Scan(60, 10, func(pid int64, payload []byte) error {
		if pid != next {
			t.Errorf("scan visited page %d, want %d", pid, next)
		}
		if got, want := int64(counterOf(payload)), applied[pid].Load(); got != want {
			t.Errorf("scan: page %d counter %d, oracle %d", pid, got, want)
		}
		next++
		return nil
	})
	if err != nil || next != 70 {
		t.Fatalf("Scan(60,10) = %v, stopped before page %d", err, next)
	}
	for _, r := range [][2]int64{{pages - 4, 10}, {-1, 2}, {pages, 1}, {0, -1}} {
		if err := db.Scan(r[0], int(r[1]), nil); err == nil {
			t.Errorf("Scan(%d,%d) out of range succeeded", r[0], r[1])
		}
	}

	// Stats are sums over the partitions; latched reads (file backends only:
	// the simulated pool is unstriped) count as reads and pool hits.
	s := db.Stats()
	wantParts := 1
	if b.conc > 1 {
		wantParts = b.conc
	}
	var engReads, engCommits int64
	for _, pt := range db.parts {
		engReads += pt.eng.Stats().Reads
		engCommits += pt.eng.Stats().Commits
	}
	if s.Partitions != wantParts || len(db.parts) != wantParts {
		t.Errorf("Partitions = %d (%d built), want %d", s.Partitions, len(db.parts), wantParts)
	}
	if s.Reads != engReads+s.LatchedReads || s.Commits != engCommits || s.Commits == 0 {
		t.Errorf("Reads = %d, Commits = %d; engines sum to %d reads + %d latched, %d commits",
			s.Reads, s.Commits, engReads, s.LatchedReads, engCommits)
	}
	if b.file {
		if s.LatchedReads == 0 {
			t.Error("no read took the latched fast path")
		}
		if s.WALSyncs == 0 || s.SyncedCommits == 0 || s.WALSyncs > s.SyncedCommits {
			t.Errorf("group commit: %d syncs for %d synced commits", s.WALSyncs, s.SyncedCommits)
		}
	} else if s.LatchedReads != 0 || s.WALSyncs != 0 || s.VirtualTime <= 0 {
		t.Errorf("simulated: %d latched reads, %d fsyncs, virtual time %v", s.LatchedReads, s.WALSyncs, s.VirtualTime)
	}
	sum := db.LatencySummary()
	for _, want := range []string{"pool-hit", "ssd-hit", "disk-read", "commit"} {
		if !strings.Contains(sum, want) {
			t.Errorf("LatencySummary missing %q: %s", want, sum)
		}
	}

	// Checkpoint, then crash and recover: every committed update must survive
	// (the in-process crash drops only unforced log records, and every commit
	// forced its own).
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := db.Stats().Checkpoints; got != int64(wantParts) {
		t.Errorf("Checkpoints = %d, want one per partition (%d)", got, wantParts)
	}
	for pid := int64(0); pid < pages; pid += 3 { // work the checkpoint does not cover
		if err := db.Update(pid, bump); err != nil {
			t.Fatalf("Update(%d): %v", pid, err)
		}
		applied[pid].Add(1)
	}
	if err := db.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if err := db.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	wantOracle("post-recovery")

	// Close is idempotent and everything after it reports ErrClosed.
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	tx := db.Begin()
	for what, err := range map[string]error{
		"Update":     db.Update(0, bump),
		"Tx.Update":  tx.Update(0, bump),
		"Scan":       db.Scan(0, 1, nil),
		"Checkpoint": db.Checkpoint(),
		"Crash":      db.Crash(),
		"Recover":    db.Recover(),
		"Idle":       db.Idle(time.Millisecond),
	} {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: %v, want ErrClosed", what, err)
		}
	}
	if _, err := db.Read(0, buf); !errors.Is(err, ErrClosed) {
		t.Errorf("Read after Close: %v, want ErrClosed", err)
	}
	if _, err := db.AllocPage(); !errors.Is(err, ErrClosed) {
		t.Errorf("AllocPage after Close: %v, want ErrClosed", err)
	}
}

// TestConcurrentCrashDuringGroupCommit crashes the DB while committers are
// in flight — some parked on group-commit flights — and verifies recovery
// lands every page in a consistent state: at least every update whose
// commit returned before the crash, never more than were started.
func TestConcurrentCrashDuringGroupCommit(t *testing.T) {
	const (
		pages   = 128
		workers = 6
	)
	db := openConcurrentDB(t, pages, 4, CommitSyncGroup)
	defer db.Close()

	var started, applied [pages]atomic.Int64
	// An Update that returns after crashing is set may have run between Crash
	// and Recover, against the contract ("call Recover before using the DB
	// again"): there it increments the stale disk image, so its page can end
	// below the committed count. Such pages keep only the upper bound.
	var crashing atomic.Bool
	var tainted [pages]atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(77 + w)))
			for !crashing.Load() {
				pid := rng.Int63n(pages)
				started[pid].Add(1)
				err := db.Update(pid, func(p []byte) {
					binary.LittleEndian.PutUint64(p, counterOf(p)+1)
				})
				if crashing.Load() {
					tainted[pid].Store(true)
					return
				}
				if err != nil {
					t.Errorf("Update(%d) before the crash: %v", pid, err)
					return
				}
				applied[pid].Add(1)
			}
		}(w)
	}

	time.Sleep(30 * time.Millisecond)
	crashing.Store(true)
	if err := db.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	wg.Wait()

	if err := db.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	buf := make([]byte, db.PageSize())
	for pid := int64(0); pid < pages; pid++ {
		if _, err := db.Read(pid, buf); err != nil {
			t.Fatalf("Read(%d) after recovery: %v", pid, err)
		}
		got := int64(counterOf(buf))
		if lo := applied[pid].Load(); got < lo && !tainted[pid].Load() {
			t.Fatalf("page %d: recovered counter %d < %d committed before crash", pid, got, lo)
		}
		if hi := started[pid].Load(); got > hi {
			t.Fatalf("page %d: recovered counter %d > %d started", pid, got, hi)
		}
	}
}

// TestConcurrentRequiresFileBackend pins the constructor contract.
func TestConcurrentRequiresFileBackend(t *testing.T) {
	_, err := Open(Options{DBPages: 64, Concurrency: 4})
	if err == nil {
		t.Fatal("Open with Concurrency on the simulated backend succeeded")
	}
}

// TestConcurrentFaultSeedPerPartition pins that fault injection composes
// with partitioning: each partition gets its own deterministic injector
// derived from the DB seed and the partition index, instead of the old
// behavior of forcing the whole backend serial.
func TestConcurrentFaultSeedPerPartition(t *testing.T) {
	db, err := Open(Options{
		DBPages: 64, PageSize: 64, Dir: t.TempDir(),
		Concurrency: 4, FaultSeed: 42,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	if len(db.parts) != 4 {
		t.Fatalf("FaultSeed downgraded the backend to %d partitions", len(db.parts))
	}
	if db.Faults() != nil {
		t.Fatal("shared injector present; partitions must have their own")
	}
	seen := make(map[*fault.Injector]bool)
	for i := 0; i < 4; i++ {
		inj := db.PartitionFaults(i)
		if inj == nil {
			t.Fatalf("partition %d: no injector", i)
		}
		if seen[inj] {
			t.Fatalf("partition %d shares an injector", i)
		}
		seen[inj] = true
	}
	if db.PartitionFaults(4) != nil || db.PartitionFaults(-1) != nil {
		t.Fatal("out-of-range PartitionFaults returned an injector")
	}
	// Distinct partitions draw distinct deterministic streams.
	if a, b := fault.DeriveSeed(42, 0), fault.DeriveSeed(42, 1); a == b {
		t.Fatalf("DeriveSeed collision: %d", a)
	}
	if fault.DeriveSeed(42, 3) != fault.DeriveSeed(42, 3) {
		t.Fatal("DeriveSeed not deterministic")
	}
}

// TestConcurrentPartitionFaultRepair pins the satellite contract: a
// fault-seeded 4-partition DB detects injected SSD read errors, degrades
// them to disk traffic, and serves every page correctly throughout.
func TestConcurrentPartitionFaultRepair(t *testing.T) {
	const pages = 64
	db, err := Open(Options{
		DBPages: pages, PageSize: 64, PoolPages: 8, SSDFrames: 32, Design: LC,
		Dir: t.TempDir(), Concurrency: 4, FaultSeed: 0xC0FFEE,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	for pid := int64(0); pid < pages; pid++ {
		if err := db.Update(pid, func(p []byte) { p[0] = byte(pid + 1) }); err != nil {
			t.Fatalf("Update(%d): %v", pid, err)
		}
	}
	// Arm read errors on every partition's SSD region, then churn reads so
	// the pool evicts to the SSD and trips the injected errors.
	for i := 0; i < 4; i++ {
		inj := db.PartitionFaults(i)
		for k := 0; k < 4; k++ {
			inj.ErrorRead("ssd", k*6+int(inj.Rand()%4))
		}
	}
	buf := make([]byte, 64)
	for round := 0; round < 30; round++ {
		for pid := int64(0); pid < pages; pid++ {
			if _, err := db.Read(pid, buf); err != nil {
				t.Fatalf("Read(%d) round %d: %v", pid, round, err)
			}
			if buf[0] != byte(pid+1) {
				t.Fatalf("Read(%d) round %d: got %#x, want %#x", pid, round, buf[0], byte(pid+1))
			}
		}
	}
	s := db.Stats()
	if s.SSDReadErrors == 0 {
		t.Fatal("no injected SSD read error was tripped; test is vacuous")
	}
	if s.SSDReads == 0 {
		t.Fatal("SSD saw no traffic; test is vacuous")
	}
}

// TestCommitSyncEach pins the durability ladder at every partition count:
// CommitSyncEach is one fsync per commit, CommitSyncGroup at least one fsync
// and never more than one per commit — including Concurrency 1, which is
// what bpeserve's GOMAXPROCS default selects on a one-core machine.
func TestCommitSyncEach(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode CommitSyncMode
		conc int
	}{
		{"each/P1", CommitSyncEach, 1},
		{"each/P4", CommitSyncEach, 4},
		{"group/P1", CommitSyncGroup, 1},
		{"group/P4", CommitSyncGroup, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := openConcurrentDB(t, 64, tc.conc, tc.mode)
			defer db.Close()
			for i := int64(0); i < 9; i++ {
				if err := db.Update(i, func(p []byte) { p[0] = byte(i) }); err != nil {
					t.Fatalf("Update: %v", err)
				}
			}
			tx := db.Begin() // the tenth commit is a transaction
			for _, pid := range []int64{9, 60} {
				if err := tx.Update(pid, func(p []byte) { p[0] = 9 }); err != nil {
					t.Fatalf("tx.Update: %v", err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("tx.Commit: %v", err)
			}
			s := db.Stats()
			// A cross-partition commit also syncs its prepares through the
			// committer, so P=4 counts one more synced commit than commits made.
			commits := int64(10)
			if tc.conc > 1 {
				commits++
			}
			if s.SyncedCommits != commits {
				t.Fatalf("%d synced commits, want %d", s.SyncedCommits, commits)
			}
			if tc.mode == CommitSyncEach && s.WALSyncs != commits {
				t.Fatalf("each-mode: %d syncs for %d commits", s.WALSyncs, commits)
			}
			if s.WALSyncs < 1 || s.WALSyncs > commits {
				t.Fatalf("%d syncs for %d commits", s.WALSyncs, commits)
			}
		})
	}
}

// TestGroupCommitAmortizesFsyncs is the overlapped case of the table above:
// with committers running concurrently a group flight must carry more than
// one commit, so fsyncs per synced commit fall well below one, while
// CommitSyncEach stays at exactly one whatever the overlap.
func TestGroupCommitAmortizesFsyncs(t *testing.T) {
	const (
		workers = 8
		ops     = 200
		maxSync = 0.9 // fsyncs per commit; ~0.13 measured on a 2-core box
	)
	for _, tc := range []struct {
		name string
		mode CommitSyncMode
	}{
		{"each", CommitSyncEach},
		{"group", CommitSyncGroup},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := openConcurrentDB(t, 64, 4, tc.mode)
			defer db.Close()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < ops; i++ {
						if err := db.Update(rng.Int63n(64), func(p []byte) { p[0]++ }); err != nil {
							t.Errorf("Update: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			s := db.Stats()
			if s.SyncedCommits != workers*ops {
				t.Fatalf("%d synced commits, want %d", s.SyncedCommits, workers*ops)
			}
			ratio := float64(s.WALSyncs) / float64(s.SyncedCommits)
			t.Logf("%d fsyncs for %d commits (%.3f)", s.WALSyncs, s.SyncedCommits, ratio)
			if tc.mode == CommitSyncEach && s.WALSyncs != s.SyncedCommits {
				t.Fatalf("each-mode: %.3f fsyncs/commit, want exactly 1", ratio)
			}
			if tc.mode == CommitSyncGroup && (s.WALSyncs < 1 || ratio > maxSync) {
				t.Fatalf("group commit does not amortize: %d fsyncs for %d commits (%.3f, need <= %.2f)",
					s.WALSyncs, s.SyncedCommits, ratio, maxSync)
			}
		})
	}
}
