package turbobp

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"turbobp/internal/device"
)

// killForTest abandons a DB the way SIGKILL would: file descriptors close
// with no checkpoint, no final WAL flush and no fsync. Everything the
// engines wrote through the OS survives in the files (kill-9 semantics);
// everything in process memory — buffer pools, pending log records — is
// gone. The DB is unusable afterwards; reopen the directory with
// Options.OpenExisting.
func killForTest(db *DB) {
	db.closed.Store(true)
	if db.coord != nil {
		db.coord.close()
	}
	for _, f := range db.files {
		f.Close()
	}
}

func reopenOpts(dir string, existing bool) Options {
	return Options{
		DBPages: 64, PageSize: 64, PoolPages: 16, Design: NoSSD,
		Dir: dir, Concurrency: 4, OpenExisting: existing,
	}
}

func mustOpen(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(existing=%v): %v", opts.OpenExisting, err)
	}
	return db
}

func writePage(t *testing.T, db *DB, pid int64, val byte) {
	t.Helper()
	if err := db.Update(pid, func(p []byte) {
		for i := range p {
			p[i] = val
		}
	}); err != nil {
		t.Fatalf("Update(%d): %v", pid, err)
	}
}

func readPage(t *testing.T, db *DB, pid int64) []byte {
	t.Helper()
	buf := make([]byte, db.PageSize())
	if _, err := db.Read(pid, buf); err != nil {
		t.Fatalf("Read(%d): %v", pid, err)
	}
	return buf
}

func wantFill(t *testing.T, db *DB, pid int64, val byte, what string) {
	t.Helper()
	got := readPage(t, db, pid)
	if !bytes.Equal(got, bytes.Repeat([]byte{val}, len(got))) {
		t.Fatalf("%s: page %d = %v..., want all %#x", what, pid, got[:4], val)
	}
}

// TestReopenDurability pins the basic restart contract at Concurrency 4:
// every acknowledged autocommit update survives an abrupt kill and
// an OpenExisting reopen, with no checkpoint and no clean Close in between.
func TestReopenDurability(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, reopenOpts(dir, false))
	for pid := int64(0); pid < 64; pid++ {
		writePage(t, db, pid, byte(pid+1))
	}
	killForTest(db)

	db2 := mustOpen(t, reopenOpts(dir, true))
	defer db2.Close()
	for pid := int64(0); pid < 64; pid++ {
		wantFill(t, db2, pid, byte(pid+1), "after kill+reopen")
	}
}

// TestReopenDurabilitySerial is the same contract at Concurrency 1: one
// partition over the whole files, the layout a pre-partition directory has.
func TestReopenDurabilitySerial(t *testing.T) {
	dir := t.TempDir()
	opts := reopenOpts(dir, false)
	opts.Concurrency = 1
	db := mustOpen(t, opts)
	for pid := int64(0); pid < 16; pid++ {
		writePage(t, db, pid, byte(pid+1))
	}
	killForTest(db)

	opts.OpenExisting = true
	db2 := mustOpen(t, opts)
	defer db2.Close()
	for pid := int64(0); pid < 16; pid++ {
		wantFill(t, db2, pid, byte(pid+1), "after kill+reopen (serial)")
	}
}

// TestReopenWithFaultSeed is the restart contract with fault injection
// armed: every device is wrapped in a fault.Device, so reopening reads the
// persisted log (wal.LoadDurable, with no simulation process) through the
// wrapper rather than straight off the file.
func TestReopenWithFaultSeed(t *testing.T) {
	for _, conc := range []int{1, 4} {
		opts := reopenOpts(t.TempDir(), false)
		opts.Concurrency, opts.FaultSeed, opts.CommitSync = conc, 7, CommitSyncEach
		db := mustOpen(t, opts)
		for pid := int64(0); pid < 64; pid++ {
			writePage(t, db, pid, byte(pid+1))
		}
		killForTest(db)

		opts.OpenExisting = true
		db2 := mustOpen(t, opts)
		for pid := int64(0); pid < 64; pid++ {
			wantFill(t, db2, pid, byte(pid+1), "after kill+reopen under FaultSeed")
		}
		db2.Close()
	}
}

// TestReopenAfterClose pins that a cleanly closed directory also reopens.
func TestReopenAfterClose(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, reopenOpts(dir, false))
	writePage(t, db, 3, 0xAB)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db2 := mustOpen(t, reopenOpts(dir, true))
	defer db2.Close()
	wantFill(t, db2, 3, 0xAB, "after close+reopen")
}

// TestCrossPartitionCommitAtomic pins the happy path: a transaction
// spanning partitions commits everywhere, survives a kill, and both pages
// carry the new value after reopen.
func TestCrossPartitionCommitAtomic(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, reopenOpts(dir, false))
	p1, p2 := int64(3), int64(60) // partitions 0 and 3 (16 pages each)
	writePage(t, db, p1, 0x11)
	writePage(t, db, p2, 0x11)

	tx := db.Begin()
	set := func(p []byte) {
		for i := range p {
			p[i] = 0x22
		}
	}
	if err := tx.Update(p1, set); err != nil {
		t.Fatalf("tx.Update: %v", err)
	}
	if err := tx.Update(p2, set); err != nil {
		t.Fatalf("tx.Update: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("tx.Commit: %v", err)
	}
	wantFill(t, db, p1, 0x22, "in-process")
	wantFill(t, db, p2, 0x22, "in-process")
	killForTest(db)

	db2 := mustOpen(t, reopenOpts(dir, true))
	defer db2.Close()
	wantFill(t, db2, p1, 0x22, "after kill+reopen")
	wantFill(t, db2, p2, 0x22, "after kill+reopen")
}

// crash2PCAt opens a fresh 4-partition DB, seeds two pages in different
// partitions with 0xAA, then runs a cross-partition transaction whose
// commit is abandoned mid-protocol at the given stage ("prepared": prepares
// durable, no decision; "decided": decision durable, participants not
// committed) and either kills the process image and returns the reopened DB,
// or — inProcess — crashes and recovers the same DB: both must resolve the
// transaction by the same rule.
func crash2PCAt(t *testing.T, stage string, inProcess bool) (*DB, int64, int64) {
	t.Helper()
	dir := t.TempDir()
	db := mustOpen(t, reopenOpts(dir, false))
	p1, p2 := int64(5), int64(50)
	writePage(t, db, p1, 0xAA)
	writePage(t, db, p2, 0xAA)

	errCrash := errors.New("crash2PC")
	db.crash2PC = func(s string) error {
		if s == stage {
			return errCrash
		}
		return nil
	}
	tx := db.Begin()
	set := func(p []byte) {
		for i := range p {
			p[i] = 0xBB
		}
	}
	if err := tx.Update(p1, set); err != nil {
		t.Fatalf("tx.Update: %v", err)
	}
	if err := tx.Update(p2, set); err != nil {
		t.Fatalf("tx.Update: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, errCrash) {
		t.Fatalf("tx.Commit = %v, want the injected crash", err)
	}
	if inProcess {
		db.crash2PC = nil
		t.Cleanup(func() { db.Close() })
		if err := db.Crash(); err != nil {
			t.Fatalf("Crash: %v", err)
		}
		if err := db.Recover(); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		return db, p1, p2
	}
	killForTest(db)

	db2 := mustOpen(t, reopenOpts(dir, true))
	t.Cleanup(func() { db2.Close() })
	return db2, p1, p2
}

// TestTwoPhaseInDoubtAborts pins presumed abort: a transaction killed after
// its prepares were forced but before the coordinator logged a decision
// rolls back completely on reopen — both pages keep their old value, even
// though the new values' redo records are durable in the WALs.
func TestTwoPhaseInDoubtAborts(t *testing.T) {
	for _, inProcess := range []bool{false, true} {
		db, p1, p2 := crash2PCAt(t, "prepared", inProcess)
		wantFill(t, db, p1, 0xAA, "in-doubt abort")
		wantFill(t, db, p2, 0xAA, "in-doubt abort")
	}
}

// TestTwoPhaseDecidedCommits pins the other resolution: once the decision
// record is durable the transaction commits on reopen even though no
// participant had written its commit record — recovery finishes the job.
func TestTwoPhaseDecidedCommits(t *testing.T) {
	for _, inProcess := range []bool{false, true} {
		db, p1, p2 := crash2PCAt(t, "decided", inProcess)
		wantFill(t, db, p1, 0xBB, "decided commit")
		wantFill(t, db, p2, 0xBB, "decided commit")
	}
}

// TestTwoPhaseRecoveredStateSurvivesNextReopen pins idempotence: resolving
// in-doubt transactions and then killing again without new writes must
// resolve the same way on the next reopen.
func TestTwoPhaseRecoveredStateSurvivesNextReopen(t *testing.T) {
	db, p1, p2 := crash2PCAt(t, "prepared", false)
	dir := db.opts.Dir
	killForTest(db)
	db2 := mustOpen(t, reopenOpts(dir, true))
	defer db2.Close()
	wantFill(t, db2, p1, 0xAA, "second reopen")
	wantFill(t, db2, p2, 0xAA, "second reopen")
}

// TestOpenExistingGeometryGuard pins the meta.json check: reopening with a
// different geometry must fail loudly instead of misreading the files.
func TestOpenExistingGeometryGuard(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, reopenOpts(dir, false))
	killForTest(db)

	bad := reopenOpts(dir, true)
	bad.DBPages = 128
	if _, err := Open(bad); err == nil || !strings.Contains(err.Error(), "geometry mismatch") {
		t.Fatalf("Open with wrong DBPages: %v, want geometry mismatch", err)
	}
	if _, err := Open(reopenOpts(t.TempDir(), true)); err == nil {
		t.Fatal("OpenExisting on an empty directory succeeded")
	}
	if _, err := Open(Options{DBPages: 64, OpenExisting: true}); err == nil {
		t.Fatal("OpenExisting without Dir succeeded")
	}
}

// TestTxReadDoesNotSeeBufferedWrites pins the documented buffering
// semantics on every backend: no reader sees a Tx's update before Commit.
func TestTxReadDoesNotSeeBufferedWrites(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			db := b.open(t, Options{DBPages: 64, PageSize: 64, PoolPages: 16, Design: NoSSD})
			defer db.Close()
			writePage(t, db, 7, 0x01)
			tx := db.Begin()
			if err := tx.Update(7, func(p []byte) { p[0] = 0xFF }); err != nil {
				t.Fatalf("tx.Update: %v", err)
			}
			if got := readPage(t, db, 7); got[0] != 0x01 {
				t.Fatalf("buffered write visible before commit: %#x", got[0])
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("tx.Commit: %v", err)
			}
			if got := readPage(t, db, 7); got[0] != 0xFF {
				t.Fatalf("committed write not visible: %#x", got[0])
			}
		})
	}
}

// TestTxUncommittedWriteDoesNotReachDisk pins atomicity at Concurrency 1: a
// transaction that never committed leaves nothing behind, even when its page
// is evicted dirty before the process is killed. (An eager Tx.Update with no
// before-image would put 0xFF in db.pages, and reopen would serve it.)
func TestTxUncommittedWriteDoesNotReachDisk(t *testing.T) {
	opts := Options{
		DBPages: 64, PageSize: 64, PoolPages: 4, Design: NoSSD,
		Dir: t.TempDir(), Concurrency: 1,
	}
	db := mustOpen(t, opts)
	writePage(t, db, 7, 0x01)
	tx := db.Begin()
	if err := tx.Update(7, func(p []byte) { p[0] = 0xFF }); err != nil {
		t.Fatalf("tx.Update: %v", err)
	}
	// Push page 7 out of the 4-frame pool: LRU-2 needs every other resident
	// page touched twice before it gives up the older one.
	for round := 0; round < 4; round++ {
		for pid := int64(20); pid < 40; pid++ {
			readPage(t, db, pid)
			readPage(t, db, pid)
		}
	}
	killForTest(db)

	opts.OpenExisting = true
	db2 := mustOpen(t, opts)
	defer db2.Close()
	if got := readPage(t, db2, 7); got[0] != 0x01 {
		t.Fatalf("page 7 = %#x after kill+reopen, want the committed 0x01", got[0])
	}
}

// TestTxConcurrentBegin runs whole transactions from eight goroutines on the
// simulated backend; under -race it pins that Begin shares no unlocked state.
func TestTxConcurrentBegin(t *testing.T) {
	db := mustOpen(t, Options{DBPages: 64, PageSize: 64, PoolPages: 16})
	defer db.Close()
	var wg sync.WaitGroup
	for w := int64(0); w < 8; w++ {
		wg.Add(1)
		go func(pid int64) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tx := db.Begin()
				err := tx.Update(pid, func(p []byte) { p[0]++ })
				if err == nil {
					err = tx.Commit()
				}
				if err != nil {
					t.Errorf("tx on page %d: %v", pid, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for pid := int64(0); pid < 8; pid++ {
		if got := readPage(t, db, pid); got[0] != 20 {
			t.Errorf("page %d = %d after 20 committed increments", pid, got[0])
		}
	}
}

// TestTwoPhaseStaleInDoubtAcrossGenerations is the regression test for a
// bug only multi-generation histories expose: an in-doubt transaction that
// generation N leaves behind is aborted by generation N+1's recovery in
// memory only — nothing durable marks the abort, so its undo record stays
// unresolved in the log. Generation N+1 then commits new writes to the
// same pages, and generation N+2's recovery must NOT let the stale
// before-image — captured before those writes — clobber them during the
// backward undo pass.
func TestTwoPhaseStaleInDoubtAcrossGenerations(t *testing.T) {
	dir := t.TempDir()
	p1, p2 := int64(35), int64(50) // different partitions with P=4
	pairTx := func(db *DB, val byte) error {
		tx := db.Begin()
		set := func(p []byte) {
			for i := range p {
				p[i] = val
			}
		}
		if err := tx.Update(p1, set); err != nil {
			return err
		}
		if err := tx.Update(p2, set); err != nil {
			return err
		}
		return tx.Commit()
	}

	// Generation 1: committed history, then an in-doubt tx (prepared on
	// both partitions, no coordinator decision) at kill time.
	db := mustOpen(t, reopenOpts(dir, false))
	for v := byte(1); v <= 5; v++ {
		if err := pairTx(db, v); err != nil {
			t.Fatalf("gen1 tx %d: %v", v, err)
		}
	}
	errCrash := errors.New("crash")
	db.crash2PC = func(s string) error {
		if s == "prepared" {
			return errCrash
		}
		return nil
	}
	if err := pairTx(db, 99); !errors.Is(err, errCrash) {
		t.Fatalf("in-doubt tx: %v", err)
	}
	killForTest(db)

	// Generation 2: recovery aborts the in-doubt tx (presumed abort),
	// then newer transactions commit over the same pages.
	db = mustOpen(t, reopenOpts(dir, true))
	wantFill(t, db, p1, 5, "gen2 start")
	wantFill(t, db, p2, 5, "gen2 start")
	for v := byte(6); v <= 10; v++ {
		if err := pairTx(db, v); err != nil {
			t.Fatalf("gen2 tx %d: %v", v, err)
		}
	}
	killForTest(db)

	// Generation 3: the stale undo from generation 1 must not regress the
	// pages below generation 2's committed state.
	db = mustOpen(t, reopenOpts(dir, true))
	defer db.Close()
	wantFill(t, db, p1, 10, "gen3")
	wantFill(t, db, p2, 10, "gen3")
}

// TestLogFullIsAnError fills every partition's slice of a deliberately tiny
// write-ahead log. A persisted log never reclaims space, so each partition
// must end in ErrLogFull — not in a panic that wedges the log mid-flush and
// hangs Close — and stay a readable, closable, reopenable database holding
// every acknowledged update. WarmRestart makes the checkpoint record carry
// the SSD buffer table, the largest thing Close has to fit. The whole test
// stays under the benchmark driver's `ulimit -f 16384`.
func TestLogFullIsAnError(t *testing.T) {
	defer func(n device.PageNum) { walPagesTotal = n }(walPagesTotal)
	walPagesTotal = 4 * 48 // 48 log pages per partition
	opts := reopenOpts(t.TempDir(), false)
	opts.Design, opts.SSDFrames, opts.WarmRestart = LC, 64, true
	db := mustOpen(t, opts)

	acked := make([]byte, opts.DBPages) // last acknowledged fill per page
	full := map[int64]bool{}            // partitions (pid / 16) that reported ErrLogFull
	for round := 1; len(full) < 4; round++ {
		if round > 250 {
			t.Fatalf("log never filled: %d of 4 partitions full after %d rounds", len(full), round)
		}
		for pid := int64(0); pid < opts.DBPages; pid += 5 {
			err := db.Update(pid, func(p []byte) {
				for i := range p {
					p[i] = byte(round)
				}
			})
			switch {
			case err == nil:
				if full[pid/16] {
					t.Fatalf("Update(%d) succeeded after its partition reported ErrLogFull", pid)
				}
				acked[pid] = byte(round)
			case errors.Is(err, ErrLogFull):
				full[pid/16] = true
			default:
				t.Fatalf("Update(%d): %v", pid, err)
			}
		}
	}
	// Every write path refuses; nothing half-applies.
	tx := db.Begin()
	for _, pid := range []int64{0, 20} {
		if err := tx.Update(pid, func(p []byte) { p[0] = 0xEE }); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); !errors.Is(err, ErrLogFull) {
		t.Fatalf("Tx.Commit on a full log: %v, want ErrLogFull", err)
	}
	// Checkpoints are admitted while the log can take theirs and Close's;
	// a few more use that up.
	var err error
	for i := 0; i < 48 && err == nil; i++ {
		err = db.Checkpoint()
	}
	if !errors.Is(err, ErrLogFull) {
		t.Fatalf("Checkpoint on a full log: %v, want ErrLogFull", err)
	}
	check := func(db *DB, what string) {
		t.Helper()
		for pid := int64(0); pid < opts.DBPages; pid++ {
			wantFill(t, db, pid, acked[pid], what)
		}
	}
	check(db, "full log")
	if err := db.Close(); err != nil {
		t.Fatalf("Close with a full log: %v", err)
	}

	opts.OpenExisting = true
	db2 := mustOpen(t, opts)
	check(db2, "full log, reopened")
	if err := db2.Update(0, func(p []byte) { p[0] = 1 }); !errors.Is(err, ErrLogFull) {
		t.Fatalf("Update after reopening a full log: %v, want ErrLogFull", err)
	}
	// The first Close used the space kept for its checkpoint record; later
	// generations find none and still lose nothing.
	if err := db2.Close(); err != nil {
		t.Fatalf("second Close with a full log: %v", err)
	}
	db3 := mustOpen(t, opts)
	check(db3, "full log, reopened twice")
	if err := db3.Close(); err != nil {
		t.Fatalf("third Close with a full log: %v", err)
	}
}
