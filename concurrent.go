package turbobp

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"turbobp/internal/device"
	"turbobp/internal/engine"
	"turbobp/internal/fault"
	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
	"turbobp/internal/wal"
)

// This file implements DB's operations over its partitions. Every backend is
// a slice of partitions: the database's page range is split into P
// contiguous partitions (P = Options.Concurrency on the file backend, always
// 1 on the simulated backend); each partition is a complete single-threaded
// engine — its own simulation environment, buffer pool, SSD-manager region
// and WAL slice — serialized by a per-partition mutex. An operation's body
// is a simulation process (it keeps its *sim.Proc signature) that the caller
// runs on its own goroutine through partition.do: no goroutine is started
// and nothing is handed between threads per operation. Operations on
// different partitions run genuinely in parallel: LRU-2 victim selection,
// SSD admission/eviction (CW/DW/LC/TAC) and WAL appends are all
// partition-local. On the file backend two layers cut across partitions:
//
//   - The latched read path: the pools run in striped-latch mode, and DB.Read
//     first tries the pool's copy-out (bufpool.ReadLatched), which serves
//     resident pages WITHOUT the partition mutex — point reads of hot pages
//     scale with stripes, not with partitions. The simulated partition's
//     pool is unstriped, so there every read takes the mutex, charging CPU
//     and advancing the virtual clock.
//   - Group commit: commit durability requests from all partitions feed one
//     wal.GroupCommitter that coalesces them into single fsyncs of the
//     shared log file (Options.CommitSync / GroupCommitMaxDelay / MaxBatch).
//
// Lock hierarchy (see DESIGN.md "Concurrency & group commit"): DB meta
// mutex and partition mutexes are independent roots; partition mutexes are
// only ever held several-at-once in ascending index order (Crash, Tx.Commit);
// page-latch stripes are leaves acquired under at most one partition mutex
// (or none, on the latched read path); the group committer's internal lock
// is taken with no other lock held.
//
// Cross-partition transactions are crash-atomic: Tx buffers its mutations
// and Tx.Commit runs presumed-abort two-phase commit over the partitions'
// WALs, coordinated by an append-only decision log — see twophase.go. The
// file backend's per-partition WALs persist real record bytes
// (wal.SetPersist) so a later process can reopen the directory
// (Options.OpenExisting) and recover: wal.LoadDurable reloads each
// partition's durable stream, and engine.RecoverDurable (the same replay an
// in-process Crash + Recover runs) redoes committed
// transactions and rolls back uncommitted ones from their logged
// before-images, resolving in-doubt prepared transactions against the
// coordinator log.
//
// Each partition gets its own deterministic fault injector seeded from
// Options.FaultSeed and the partition index (fault.DeriveSeed), reachable
// via DB.PartitionFaults.

// CommitSyncMode selects how the file backend makes commits durable on the
// real device. The simulated backend ignores it.
type CommitSyncMode int

const (
	// CommitSyncNone never fsyncs on commit (the default): commit forces the
	// WAL to the OS, not the platter.
	CommitSyncNone CommitSyncMode = iota
	// CommitSyncEach issues one fsync per commit.
	CommitSyncEach
	// CommitSyncGroup coalesces concurrent commits into shared fsync
	// flights (WAL group commit; see wal.GroupCommitter).
	CommitSyncGroup
)

// poolStripesPerPartition is the page-latch stripe count of each
// partition's buffer pool (rounded up to a power of two by the pool).
const poolStripesPerPartition = 16

// walPagesTotal is the log-file capacity in 8 KB pages, split evenly
// across partitions. A variable only so a test can shrink it.
var walPagesTotal device.PageNum = 1 << 20

// fileOpTick is the virtual time one facade operation costs a file-backed
// partition. There the engine charges no CPU time and device.File completes
// inside the syscall, so nothing else ever moves the partition's clock — and
// the lazy cleaner's poll, the periodic checkpointer and the scrubber are
// all paced by it: CheckpointInterval = 500 ms means every 500 operations.
const fileOpTick = time.Millisecond

// partition is one page-range shard of a DB: a complete single-threaded
// engine serialized by mu.
type partition struct {
	mu   sync.Mutex
	env  *sim.Env
	eng  *engine.Engine
	base int64         // first global page id
	n    int64         // page count
	tick time.Duration // fileOpTick on the file backend; 0 on the simulated one, whose devices and CPU model move the clock
}

// run is do under the partition mutex. The mutex is released by defer: the
// body may call the caller's own code (an Update mutation, a Scan callback)
// and runs on the caller's goroutine, so a panic there unwinds through here.
func (pt *partition) run(name string, fn func(p *sim.Proc) error) error {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.do(name, fn)
}

// do runs fn as a process of the partition's environment on the calling
// goroutine (sim.Env.Call): the caller executes the body and, where the body
// waits, dispatches the partition's pending events — device completions,
// the cleaner, the checkpointer — itself. Callers must hold pt.mu.
func (pt *partition) do(name string, fn func(p *sim.Proc) error) error {
	var err error
	pt.env.Call(name, func(p *sim.Proc) {
		err = fn(p)
		if pt.tick > 0 {
			p.Sleep(pt.tick)
		}
	})
	return err
}

// partOf maps a global page id to its partition and partition-local id.
// Callers have validated the range.
func (db *DB) partOf(pid int64) (*partition, int64) {
	boundary := db.rem * (db.quot + 1)
	var i int64
	if pid < boundary {
		i = pid / (db.quot + 1)
	} else {
		i = db.rem + (pid-boundary)/db.quot
	}
	pt := db.parts[i]
	return pt, pid - pt.base
}

func (db *DB) checkPage(pid int64) error {
	if pid < 0 || pid >= db.opts.DBPages {
		return fmt.Errorf("turbobp: page %d out of range [0,%d)", pid, db.opts.DBPages)
	}
	return nil
}

// syncCommit runs the configured commit-durability step. Called with no
// locks held, after the partition-local commit released the WAL to the OS.
func (db *DB) syncCommit() error {
	if db.gc == nil {
		return nil
	}
	return db.gc.Commit()
}

// openPartitions builds db.parts, one loop for every backend. On the file
// backend the owner files are already open in db.files and each partition
// gets a Slice of each (one partition takes the whole file at offset 0); on
// the simulated backend the files are nil and the one partition builds its
// own simulated devices. cfg carries everything but the per-partition
// geometry. When opts.OpenExisting is set the files hold a previous
// incarnation's state: formatting is skipped and each partition instead
// reloads its persisted WAL and runs commit-aware restart recovery,
// resolving in-doubt two-phase transactions against the reloaded
// coordinator log.
func (db *DB) openPartitions(cfg engine.Config, dbFile, ssdFile, logFile *device.File) error {
	opts := db.opts
	p := int64(opts.Concurrency)
	if p < 1 {
		p = 1
	}
	if p > opts.DBPages {
		p = opts.DBPages
	}
	db.quot, db.rem = opts.DBPages/p, opts.DBPages%p

	div := func(v, n int) int {
		if v <= 0 {
			return v
		}
		if v /= n; v < 1 {
			v = 1
		}
		return v
	}
	poolPer := div(opts.PoolPages, int(p))
	ssdPer := div(opts.SSDFrames, int(p))
	walPer := walPagesTotal / device.PageNum(p)

	var maxGtx uint64
	var base, ssdBase int64
	for i := int64(0); i < p; i++ {
		n := db.quot
		if i < db.rem {
			n++
		}
		pcfg := cfg
		pcfg.DBPages = n
		pcfg.PoolPages = poolPer
		pcfg.SSDFrames = ssdPer
		if opts.FaultSeed != 0 {
			pcfg.Faults = fault.New(fault.DeriveSeed(opts.FaultSeed, uint64(i)))
		}
		pt := &partition{env: sim.NewEnv(), base: base, n: n}
		if dbFile == nil {
			pt.eng = engine.New(pt.env, pcfg)
		} else {
			pt.tick = fileOpTick
			dbSlice, err := dbFile.Slice(device.PageNum(base), device.PageNum(n))
			if err != nil {
				return err
			}
			var ssdDev device.Device
			if ssdFile != nil {
				ssdSlice, err := ssdFile.Slice(device.PageNum(ssdBase), device.PageNum(ssdPer))
				if err != nil {
					return err
				}
				ssdDev = ssdSlice
				ssdBase += int64(ssdPer)
			}
			walSlice, err := logFile.Slice(device.PageNum(i)*walPer, walPer)
			if err != nil {
				return err
			}
			pcfg.WALCapacity = walPer
			pt.eng = engine.NewWithDevices(pt.env, pcfg, dbSlice, ssdDev, walSlice)
		}
		if opts.OpenExisting {
			if err := pt.eng.Log().LoadDurable(); err != nil {
				return fmt.Errorf("reload partition %d: %w", i, err)
			}
			if gtx := pt.eng.AdoptDurableTxIDs(); gtx > maxGtx {
				maxGtx = gtx
			}
		} else if err := pt.eng.FormatDB(); err != nil {
			return fmt.Errorf("format partition %d: %w", i, err)
		}
		db.parts = append(db.parts, pt)
		base += n
	}
	if logFile == nil {
		return nil // simulated: no coordinator log, no group committer
	}

	coord, err := openCoordLog(filepath.Join(opts.Dir, "txn.log"),
		!opts.OpenExisting, opts.CommitSync != CommitSyncNone)
	if err != nil {
		return err
	}
	db.coord = coord
	if coord.maxGtx > maxGtx {
		maxGtx = coord.maxGtx
	}
	db.nextGtx.Store(maxGtx)

	for i, pt := range db.parts {
		pt.eng.SetTxResolver(coord.isCommitted)
		if !opts.OpenExisting {
			continue
		}
		if err := pt.do("recover", pt.eng.RecoverDurable); err != nil {
			coord.close()
			return fmt.Errorf("recover partition %d: %w", i, err)
		}
	}

	switch opts.CommitSync {
	case CommitSyncEach:
		db.gc = wal.NewGroupCommitter(logFile.Sync, 1, 0, true)
	case CommitSyncGroup:
		db.gc = wal.NewGroupCommitter(logFile.Sync,
			opts.GroupCommitMaxBatch, opts.GroupCommitMaxDelay, false)
	}
	return nil
}

// Read copies the payload of page pid into buf and returns the number of
// bytes copied.
func (db *DB) Read(pid int64, buf []byte) (int, error) {
	if db.closed.Load() {
		return 0, ErrClosed
	}
	if err := db.checkPage(pid); err != nil {
		return 0, err
	}
	pt, local := db.partOf(pid)
	// Fast path: a resident page is copied out under its stripe latch alone
	// (never taken on the simulated partition, whose pool is unstriped).
	if n, ok := pt.eng.Pool().ReadLatched(page.ID(local), buf); ok {
		db.latched.Add(1)
		return n, nil
	}
	n := 0
	err := pt.run("read", func(p *sim.Proc) error {
		f, err := pt.eng.Get(p, page.ID(local))
		if err != nil {
			return err
		}
		n = copy(buf, f.Pg.Payload)
		return nil
	})
	return n, err
}

// Update applies fn to the payload of page pid inside its own committed
// transaction.
func (db *DB) Update(pid int64, fn func(payload []byte)) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.checkPage(pid); err != nil {
		return err
	}
	pt, local := db.partOf(pid)
	err := pt.run("update", func(p *sim.Proc) error {
		if err := pt.eng.ReserveLog(1); err != nil {
			return err
		}
		defer pt.eng.ReleaseLog(1)
		tx := pt.eng.Begin()
		if err := pt.eng.Update(p, tx, page.ID(local), fn); err != nil {
			pt.eng.Forget(tx) // a failed Update logs nothing
			return err
		}
		return pt.eng.Commit(p, tx)
	})
	if err != nil {
		return err
	}
	return db.syncCommit()
}

// Scan reads n consecutive pages starting at start through the engine's
// read-ahead path (sequential classification, multi-page I/O with SSD
// trimming) and calls fn with each page's payload.
func (db *DB) Scan(start int64, n int, fn func(pid int64, payload []byte) error) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if n < 0 {
		return fmt.Errorf("turbobp: negative scan length %d", n)
	}
	if err := db.checkPage(start); err != nil {
		return err
	}
	if n > 0 {
		if err := db.checkPage(start + int64(n) - 1); err != nil {
			return err
		}
	}
	// Walk the covered partitions in page order; each sub-range runs under
	// its partition's mutex through the engine's read-ahead path.
	for pid := start; pid < start+int64(n); {
		pt, local := db.partOf(pid)
		count := pt.base + pt.n - pid // pages of this scan inside pt
		if rest := start + int64(n) - pid; rest < count {
			count = rest
		}
		err := pt.run("scan", func(p *sim.Proc) error {
			if err := pt.eng.Scan(p, page.ID(local), int(count)); err != nil {
				return err
			}
			if fn == nil {
				return nil
			}
			for i := int64(0); i < count; i++ {
				f, err := pt.eng.Get(p, page.ID(local+i))
				if err != nil {
					return err
				}
				if err := fn(pid+i, f.Pg.Payload); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		pid += count
	}
	return nil
}

// eachPartition runs fn as a process on every partition in index order, one
// partition mutex at a time, and stops at the first error.
func (db *DB) eachPartition(name string, fn func(pt *partition, p *sim.Proc) error) error {
	if db.closed.Load() {
		return ErrClosed
	}
	for _, pt := range db.parts {
		err := pt.run(name, func(p *sim.Proc) error { return fn(pt, p) })
		if err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint performs a sharp checkpoint: all dirty pages in memory (and,
// under LC, in the SSD) are flushed to the database storage.
func (db *DB) Checkpoint() error {
	err := db.eachPartition("checkpoint", func(pt *partition, p *sim.Proc) error {
		return pt.eng.Checkpoint(p)
	})
	if err != nil {
		return err
	}
	if db.opts.CommitSync != CommitSyncNone {
		for _, f := range db.files {
			if err := f.Sync(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Idle advances the clock by d with no foreground work, giving background
// processes — periodic checkpoints, the SSD scrubber — time to run.
func (db *DB) Idle(d time.Duration) error {
	return db.eachPartition("idle", func(_ *partition, p *sim.Proc) error {
		p.Sleep(d)
		return nil
	})
}

// Crash simulates a failure: memory and unforced log records are lost and
// the SSD cache is discarded, exactly as a restart in the paper behaves.
// Call Recover before using the DB again.
func (db *DB) Crash() error {
	if db.closed.Load() {
		return ErrClosed
	}
	// All partitions stop at one cut: take every mutex (ascending), then
	// drop volatile state everywhere.
	for _, pt := range db.parts {
		pt.mu.Lock()
	}
	for _, pt := range db.parts {
		pt.eng.Crash()
	}
	for i := len(db.parts) - 1; i >= 0; i-- {
		db.parts[i].mu.Unlock()
	}
	return nil
}

// Recover replays the durable log against the database storage, restoring
// every committed update.
func (db *DB) Recover() error {
	return db.eachPartition("recover", func(pt *partition, p *sim.Proc) error {
		return pt.eng.Recover(p)
	})
}

// Faults returns the DB's fault injector when it has exactly one partition,
// or nil when Options.FaultSeed was zero or there are several (each has its
// own — use PartitionFaults). Use it to arm crash points and schedule device
// faults; the device names are "db", "ssd" and "wal". See docs/FAILURES.md
// for the failure model and each design's recovery semantics.
func (db *DB) Faults() *fault.Injector {
	if len(db.parts) != 1 {
		return nil
	}
	return db.PartitionFaults(0)
}

// PartitionFaults returns partition i's fault injector (nil when fault
// injection is off or i is out of range). Injectors are engine-private
// state: arm schedules only while the DB is quiescent (no operations in
// flight).
func (db *DB) PartitionFaults(i int) *fault.Injector {
	if i < 0 || i >= len(db.parts) {
		return nil
	}
	return db.parts[i].eng.Config().Faults
}

// FailSSD makes the SSD device fail on its next operation, modeling a
// whole-SSD loss during forward processing. The engine detects the loss,
// replaces the device, rebuilds the cache and — under LC — redoes the
// uniquely-dirty SSD pages from the WAL; no committed update is lost.
// Stats.SSDLosses and Stats.SSDRedoRecords report what happened. Every
// partition's SSD region fails at once, and each engine detects and recovers
// independently.
func (db *DB) FailSSD() error {
	if db.closed.Load() {
		return ErrClosed
	}
	armed := 0
	for _, pt := range db.parts {
		pt.mu.Lock()
		inj := pt.eng.Config().Faults
		if inj != nil && pt.eng.SSDDevice() != nil {
			inj.FailDeviceNow("ssd")
			armed++
		}
		pt.mu.Unlock()
	}
	if armed == 0 {
		return fmt.Errorf("turbobp: fault injection disabled or no SSD (set Options.FaultSeed and an SSD design)")
	}
	return nil
}

// Stats returns current counters, summed over the partitions.
func (db *DB) Stats() Stats {
	var es engine.Stats
	var ms ssd.Stats
	var s Stats
	var vt time.Duration
	for _, pt := range db.parts {
		pt.mu.Lock()
		es = es.Add(pt.eng.Stats())
		ms = ms.Add(pt.eng.SSD().Stats())
		s.SSDOccupied += pt.eng.SSD().Occupied()
		s.SSDDirty += pt.eng.SSD().DirtyCount()
		s.RetiredSlots += pt.eng.SSD().RetiredSlots()
		s.Quarantined = s.Quarantined || pt.eng.SSD().Quarantined()
		d := pt.eng.DBDevice().Stats().Load()
		s.DiskReads += d.ReadOps
		s.DiskWrites += d.WriteOps
		if dev := pt.eng.SSDDevice(); dev != nil {
			sd := dev.Stats().Load()
			s.SSDReads += sd.ReadOps
			s.SSDWrites += sd.WriteOps
		}
		if now := pt.env.Now(); now > vt {
			vt = now
		}
		pt.mu.Unlock()
	}
	latched := db.latched.Load()
	s.Design = db.opts.Design
	s.Reads = es.Reads + latched
	s.Updates = es.Updates
	s.Commits = es.Commits
	s.PoolHits = es.PoolHits + latched
	s.PoolMisses = es.PoolMisses
	s.SSDHits = ms.Hits
	s.SSDMisses = ms.Misses
	s.Checkpoints = es.Checkpoints
	s.VirtualTime = vt
	s.SSDLosses = es.SSDLosses
	s.SSDRedoRecords = es.SSDLossRedo
	s.SSDReadErrors = ms.ReadErrors
	s.CorruptDetected = ms.CorruptDetected
	s.CorruptRepaired = ms.CorruptRepaired
	s.CorruptRedo = es.CorruptRedo
	s.DiskCorruptions = es.DiskCorruptions
	s.DiskRepairsSSD = es.DiskRepairsSSD
	s.DiskRepairsWAL = es.DiskRepairsWAL
	s.ScrubSweeps = ms.ScrubSweeps
	s.ScrubFrames = ms.ScrubFrames
	s.ScrubRepairs = ms.ScrubRepairs
	s.LatchedReads = latched
	s.Partitions = len(db.parts)
	if db.gc != nil {
		gs := db.gc.Stats()
		s.SyncedCommits = gs.Commits
		s.WALSyncs = gs.Syncs
		s.MaxCommitFlight = gs.MaxFlight
	}
	return s
}

// LatencySummary reports per-tier read latency and commit latency as
// human-readable lines (count, mean, p50, p99, max per tier), merged over
// the partitions.
func (db *DB) LatencySummary() string {
	var l engine.Latencies
	for _, pt := range db.parts {
		pt.mu.Lock()
		pl := pt.eng.Latencies()
		l.PoolHit.Merge(&pl.PoolHit)
		l.SSDHit.Merge(&pl.SSDHit)
		l.DiskRead.Merge(&pl.DiskRead)
		l.Commit.Merge(&pl.Commit)
		pt.mu.Unlock()
	}
	return fmt.Sprintf("pool-hit:  %s\nssd-hit:   %s\ndisk-read: %s\ncommit:    %s",
		l.PoolHit.Summary(), l.SSDHit.Summary(), l.DiskRead.Summary(), l.Commit.Summary())
}

// Close checkpoints, stops background work, and releases resources. The
// DB cannot be used afterwards.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	var err error
	for _, pt := range db.parts {
		pt.mu.Lock()
		cerr := pt.do("close-checkpoint", pt.eng.CloseCheckpoint)
		if errors.Is(cerr, ErrLogFull) {
			// No room even for this record (earlier generations' Closes used
			// it): every acknowledged commit is durable in the log already,
			// and a reopen replays it as after a kill.
			cerr = nil
		}
		pt.eng.StopBackground()
		pt.env.Run(pt.env.Now() + time.Second) // let background processes exit
		pt.env.Shutdown()
		pt.mu.Unlock()
		if cerr != nil && err == nil {
			err = cerr
		}
	}
	for _, f := range db.files {
		if serr := f.Sync(); serr != nil && err == nil {
			err = serr
		}
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if db.coord != nil {
		if cerr := db.coord.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
