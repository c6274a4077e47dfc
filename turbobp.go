// Package turbobp is a storage engine with an SSD-extended buffer pool,
// implementing the designs of Do et al., "Turbocharging DBMS Buffer Pool
// Using SSDs" (SIGMOD 2011): clean-write (CW), dual-write (DW),
// lazy-cleaning (LC), and the temperature-aware caching (TAC) comparison
// point.
//
// A DB manages fixed-size pages across a three-level hierarchy: an
// in-memory buffer pool, an optional SSD buffer-pool extension, and the
// database's primary storage, with a write-ahead log, sharp checkpoints
// and crash recovery. Two backends are available:
//
//   - Simulated (Options.Dir == ""): storage devices are queueing models
//     calibrated to the paper's hardware (Table 1), and time is virtual.
//     This is what the experiment harness and benchmarks use.
//   - File-backed (Options.Dir set): pages live in ordinary files; device
//     time is real. This is what the runnable examples and the bpeserve
//     network server use.
//
// # Concurrency
//
// A DB is safe for concurrent use. Every backend is a set of page-range
// partitions, each a complete engine (buffer pool, SSD region, WAL slice)
// behind its own mutex; Options.Concurrency picks how many:
//
//   - Simulated backend: always one partition (the simulation kernel is
//     single-threaded by design — its determinism contract depends on it),
//     so operations serialize on its mutex.
//   - File backend with Concurrency = P: the page range splits into P
//     contiguous partitions (0 and 1 both mean one). Operations on different
//     partitions — including LRU-2 victim selection and CW/DW/LC/TAC
//     admission/eviction — proceed in parallel, and Read serves resident
//     pages through a striped page-latch fast path that takes no partition
//     mutex at all, whatever P is.
//
// Commit durability on the file backend is governed by Options.CommitSync,
// at every Concurrency: the default (CommitSyncNone) forces the WAL to the
// OS only; CommitSyncEach fsyncs per commit; CommitSyncGroup batches
// concurrent committers into shared fsync flights (group commit), so a
// commit that has returned is durable — it rode some completed fsync —
// while N concurrent commits cost ~1 fsync instead of N. A transaction
// spanning multiple partitions is crash-atomic: Tx.Commit runs
// presumed-abort two-phase commit over the per-partition WALs with a
// coordinator decision log (see twophase.go), so after a crash and reopen
// (Options.OpenExisting) the transaction is either fully committed or
// fully rolled back — never split.
//
// The file backend's state survives process restarts: Open with
// Options.OpenExisting reattaches to a directory a previous process (even
// one killed with SIGKILL) left behind, reloads the persisted WALs, redoes
// committed transactions and rolls back uncommitted ones. See
// docs/FAILURES.md for the full failure model.
package turbobp

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"turbobp/internal/bufpool"
	"turbobp/internal/device"
	"turbobp/internal/engine"
	"turbobp/internal/page"
	"turbobp/internal/ssd"
	"turbobp/internal/wal"
)

// Design selects how dirty pages evicted from the memory pool are handled
// (§2.3 of the paper).
type Design = ssd.Design

// The available designs.
const (
	// NoSSD disables the SSD extension entirely.
	NoSSD = ssd.NoSSD
	// CW (clean-write) never writes dirty pages to the SSD.
	CW = ssd.CW
	// DW (dual-write) writes dirty evictions to the SSD and the disk
	// concurrently, keeping the SSD a write-through cache.
	DW = ssd.DW
	// LC (lazy-cleaning) writes dirty evictions only to the SSD; a
	// background cleaner copies them to the disk later (write-back).
	LC = ssd.LC
	// TAC is Canim et al.'s temperature-aware caching.
	TAC = ssd.TAC
)

// CachePolicy selects the memory buffer pool's replacement policy.
type CachePolicy = bufpool.Kind

// The available cache policies.
const (
	// PolicyLRU2 is the original LRU-2 ordering (the default).
	PolicyLRU2 = bufpool.LRU2
	// PolicyCFLRU prefers evicting clean pages over dirty ones.
	PolicyCFLRU = bufpool.CFLRU
)

// ParseCachePolicy resolves a policy name ("lru2" or "cflru"; empty =
// LRU-2) to its CachePolicy value; any other name is an error.
func ParseCachePolicy(s string) (CachePolicy, error) { return bufpool.ParseKind(s) }

// Options configures a DB. Zero values take the paper's defaults
// (Table 2) where one exists.
type Options struct {
	// Design selects the dirty-page policy. The zero value is NoSSD; any
	// value outside the named designs is an error from Open.
	Design Design
	// Policy selects the memory pool's replacement policy. Default:
	// PolicyLRU2. The SSD tier's heaps are LRU-2 whatever it is (§3.1).
	Policy CachePolicy

	// DBPages is the database size in pages. Required.
	DBPages int64
	// PoolPages is the in-memory buffer pool size in frames. Default 256.
	PoolPages int
	// SSDFrames is the SSD buffer-pool size in frames (0 with Design !=
	// NoSSD defaults to 4× PoolPages).
	SSDFrames int
	// PageSize is the usable payload bytes per page. Default 256.
	PageSize int

	// Paper knobs (Table 2): τ (FillThreshold) and λ (DirtyFraction). The
	// other three, μ, N and α, keep their Table 2 defaults.
	FillThreshold float64
	DirtyFraction float64

	// CheckpointInterval enables periodic sharp checkpoints, measured on
	// the partition's virtual clock (see Stats.VirtualTime): simulated time
	// on the simulated backend; on the file backend one millisecond per
	// operation on the partition, so 500ms means every 500 operations. 0
	// disables them; Checkpoint may always be called explicitly. Only a
	// checkpoint truncates the simulated backend's in-memory log, which
	// Crash and Recover replay: without one it keeps every record, about
	// 330 bytes per DB.Update and 660 per Tx.Update (an undo before-image
	// and an after-image) at 256-byte pages, so a long-running simulated
	// database grows without bound.
	CheckpointInterval time.Duration
	// FuzzyCheckpoints makes checkpoints record the redo horizon without
	// flushing pages: nearly free, but recovery replays more of the log.
	FuzzyCheckpoints bool
	// WarmRestart persists the SSD buffer table in checkpoint records so
	// Recover can reuse the (surviving) SSD cache instead of starting cold.
	// In-process Recover only; a reopen (OpenExisting) starts the SSD cold.
	WarmRestart bool

	// Dir selects the file backend: page files and the log live under it.
	// Empty selects the simulated backend.
	Dir string

	// OpenExisting reattaches to a Dir a previous process left behind
	// instead of formatting it: the persisted WALs reload, committed
	// transactions redo, uncommitted ones roll back from their logged
	// before-images, and in-doubt two-phase transactions resolve against
	// the coordinator log. The directory's geometry (recorded in meta.json
	// at first open) must match these Options. Requires Dir.
	OpenExisting bool

	// FaultSeed, when nonzero, enables the deterministic fault-injection
	// layer: the DB's devices are wrapped so that I/O errors, torn writes,
	// silent corruption and whole-SSD loss can be injected (see Faults and
	// FailSSD), and the engine's crash points become armable. The same seed
	// replays the same fault schedule. Zero disables injection at no cost.
	// Each partition gets its own injector, seeded deterministically from
	// this seed and the partition index; reach them through PartitionFaults
	// (or Faults when there is one partition).
	FaultSeed uint64

	// Concurrency partitions the file backend's page range into this many
	// independently-locked engines (see the package doc). 0 and 1 both mean
	// one partition; values above 1 require Dir to be set.
	Concurrency int
	// CommitSync selects commit durability on the file backend, at every
	// Concurrency: none (default), one fsync per commit, or group commit.
	// The simulated backend ignores it.
	CommitSync CommitSyncMode

	// ScrubInterval enables the background SSD scrubber: every interval it
	// re-reads a batch of resident frames and verifies checksum, page id
	// and LSN, healing silent corruption before a query trips over it —
	// clean frames are rewritten in place from the database copy, dirty
	// frames (the only up-to-date copy) are rebuilt through WAL redo.
	// 0, the default, disables scrubbing. See docs/FAILURES.md.
	ScrubInterval time.Duration
}

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("turbobp: database closed")

// ErrLogFull is returned by Update, Tx.Commit and Checkpoint on the file
// backend once the page's partition has (nearly) used up its slice of the
// write-ahead log: a persisted log never reclaims space, so the condition is
// permanent for that partition. Reads, Close and a reopen keep working and
// every acknowledged update stays durable. See docs/FAILURES.md.
var ErrLogFull = engine.ErrLogFull

// ErrLogDamaged is returned by Open with Options.OpenExisting when a
// record in the middle of a partition's slice of wal.log fails its
// checksum while later records still continue the log. Only a torn tail —
// the last write a killed process left half done — is dropped on reopen;
// damage before acknowledged commits is refused, and the file is left as
// it was. See docs/FAILURES.md.
var ErrLogDamaged = wal.ErrLogDamaged

// DB is an open database: a set of page-range partitions (one on the
// simulated backend) plus the state that cuts across them. See concurrent.go
// for the partitions and the lock hierarchy.
type DB struct {
	opts  Options
	files []*device.File // db.pages, optional ssd.pages, wal.log (file backend)
	parts []*partition
	quot  int64 // partition size floor; partitions [0,rem) hold quot+1
	rem   int64

	gc      *wal.GroupCommitter // nil on the simulated backend and under CommitSyncNone
	coord   *coordLog           // two-phase-commit decision log (twophase.go); nil on the simulated backend
	nextGtx atomic.Uint64       // global transaction id counter

	// crash2PC, when set (tests only), is called at the two in-doubt
	// stages of a cross-partition commit — "prepared" (prepares durable,
	// no decision) and "decided" (decision durable, participants not yet
	// committed). A non-nil return abandons the commit mid-protocol, as a
	// kill would, so recovery tests can pin both resolutions.
	crash2PC func(stage string) error

	latched atomic.Int64 // reads served by the latched fast path
	closed  atomic.Bool

	metaMu    sync.Mutex // guards allocated
	allocated int64
}

// Open creates a database with the given options. The database starts
// formatted and empty (every page zero-filled) unless Options.OpenExisting
// reattaches to a directory's previous state.
func Open(opts Options) (*DB, error) {
	if opts.DBPages <= 0 {
		return nil, errors.New("turbobp: Options.DBPages must be positive")
	}
	if opts.Design < NoSSD || opts.Design > TAC {
		return nil, fmt.Errorf("turbobp: Options.Design: unknown design %v", opts.Design)
	}
	if opts.PageSize <= 0 {
		opts.PageSize = 256
	}
	if opts.PoolPages <= 0 {
		opts.PoolPages = 256
	}
	if opts.SSDFrames <= 0 && opts.Design != NoSSD {
		opts.SSDFrames = 4 * opts.PoolPages
	}
	if opts.Concurrency > 1 && opts.Dir == "" {
		return nil, errors.New("turbobp: Options.Concurrency > 1 requires the file backend (set Options.Dir)")
	}
	if opts.OpenExisting && opts.Dir == "" {
		return nil, errors.New("turbobp: Options.OpenExisting requires the file backend (set Options.Dir)")
	}
	if _, err := ParseCachePolicy(opts.Policy.String()); err != nil {
		return nil, fmt.Errorf("turbobp: Options.Policy: %w", err)
	}
	cfg := engine.Config{
		Config: ssd.Config{
			Design:        opts.Design,
			PayloadSize:   opts.PageSize,
			FillThreshold: opts.FillThreshold,
			DirtyFraction: opts.DirtyFraction,
			ScrubPeriod:   opts.ScrubInterval,
		},
		Policy:             opts.Policy,
		CheckpointInterval: opts.CheckpointInterval,
		FuzzyCheckpoints:   opts.FuzzyCheckpoints,
		WarmRestart:        opts.WarmRestart,
	}
	db := &DB{opts: opts}
	// The simulated backend leaves the files nil: its one partition builds
	// simulated devices, an unstriped pool and a virtual clock.
	var dbFile, ssdFile, logFile *device.File
	if opts.Dir != "" {
		if opts.OpenExisting {
			if err := verifyMeta(opts); err != nil {
				return nil, err
			}
		} else if err := writeMeta(opts); err != nil {
			return nil, err
		}
		openFile := device.OpenFile
		if opts.OpenExisting {
			openFile = device.OpenFileExisting
		}
		filePage := page.HeaderSize + opts.PageSize
		var err error
		dbFile, err = openFile(filepath.Join(opts.Dir, "db.pages"), filePage, device.PageNum(opts.DBPages))
		if err != nil {
			return nil, fmt.Errorf("turbobp: %w", err)
		}
		db.files = append(db.files, dbFile)
		if opts.Design != NoSSD && opts.SSDFrames > 0 {
			// The SSD cache never carries state across restarts (the paper's
			// §6 cold-restart assumption), so even a reopen starts it fresh.
			ssdFile, err = device.OpenFile(filepath.Join(opts.Dir, "ssd.pages"), filePage, device.PageNum(opts.SSDFrames))
			if err != nil {
				db.closeFiles()
				return nil, fmt.Errorf("turbobp: %w", err)
			}
			db.files = append(db.files, ssdFile)
		}
		logFile, err = openFile(filepath.Join(opts.Dir, "wal.log"), 8192, walPagesTotal)
		if err != nil {
			db.closeFiles()
			return nil, fmt.Errorf("turbobp: %w", err)
		}
		db.files = append(db.files, logFile)
	}
	if err := db.openPartitions(cfg, dbFile, ssdFile, logFile); err != nil {
		db.closeFiles()
		return nil, fmt.Errorf("turbobp: %w", err)
	}
	return db, nil
}

// dbMeta is the geometry record written to Dir/meta.json at first open and
// verified on OpenExisting: the fields that determine the on-disk layout
// (file sizes, partition boundaries, WAL slicing) must match exactly or the
// reopened engines would read another geometry's bytes as their own.
type dbMeta struct {
	Version     int   `json:"version"`
	Design      int   `json:"design"`
	DBPages     int64 `json:"db_pages"`
	PageSize    int   `json:"page_size"`
	SSDFrames   int   `json:"ssd_frames"`
	Concurrency int   `json:"concurrency"`
}

func metaOf(opts Options) dbMeta {
	conc := opts.Concurrency
	if conc < 1 {
		conc = 1
	}
	frames := opts.SSDFrames
	if opts.Design == NoSSD {
		frames = 0
	}
	return dbMeta{
		Version:     1,
		Design:      int(opts.Design),
		DBPages:     opts.DBPages,
		PageSize:    opts.PageSize,
		SSDFrames:   frames,
		Concurrency: conc,
	}
}

func writeMeta(opts Options) error {
	data, err := json.Marshal(metaOf(opts))
	if err != nil {
		return fmt.Errorf("turbobp: meta: %w", err)
	}
	if err := os.WriteFile(filepath.Join(opts.Dir, "meta.json"), data, 0o644); err != nil {
		return fmt.Errorf("turbobp: meta: %w", err)
	}
	return nil
}

func verifyMeta(opts Options) error {
	data, err := os.ReadFile(filepath.Join(opts.Dir, "meta.json"))
	if err != nil {
		return fmt.Errorf("turbobp: OpenExisting: %s is not a turbobp directory: %w", opts.Dir, err)
	}
	var have dbMeta
	if err := json.Unmarshal(data, &have); err != nil {
		return fmt.Errorf("turbobp: OpenExisting: corrupt meta.json: %w", err)
	}
	if want := metaOf(opts); have != want {
		return fmt.Errorf("turbobp: OpenExisting: geometry mismatch: directory has %+v, options give %+v", have, want)
	}
	return nil
}

func (db *DB) closeFiles() {
	for _, f := range db.files {
		f.Close()
	}
}

// Commit is a no-op that makes *DB satisfy storage.Store: every DB.Update
// outside an explicit Tx is already its own committed transaction, so by
// the time Commit is called there is nothing left to make durable. Use
// Begin/Tx.Commit to group updates into one atomic transaction.
func (db *DB) Commit() error { return nil }

// Tx is a transaction: a sequence of reads and updates committed together.
// A Tx must not be used concurrently with itself (different Txs may run
// concurrently). Its updates buffer until Commit, which applies them under
// every touched partition's lock — logging each page's before-image first,
// so an uncommitted change an eviction leaked to disk rolls back on reopen —
// and, when the transaction spans partitions, runs two-phase commit so the
// whole transaction is crash-atomic (see twophase.go). Buffering means no
// reader, Tx.Read included, observes the transaction's updates before
// Commit; mutation closures run at Commit against the then-current payload.
// This holds on every backend.
type Tx struct {
	db     *DB
	writes map[int64][]func([]byte) // buffered mutations, per page in call order
}

// Begin starts a transaction. It touches no engine: local transaction ids
// are drawn at Commit, under the participants' mutexes.
func (db *DB) Begin() *Tx { return &Tx{db: db} }

// Read copies page pid's payload into buf within the transaction.
func (tx *Tx) Read(pid int64, buf []byte) (int, error) {
	return tx.db.Read(pid, buf)
}

// Update buffers fn as a mutation of page pid's payload. Nothing touches the
// engines until Commit: deferring the writes lets the commit apply, prepare
// and decide the whole transaction under every participant's mutex at once —
// the window two-phase commit needs (see twophase.go). Mutations chain per
// page, so fn runs at commit time against the payload as the transaction's
// earlier mutations left it.
func (tx *Tx) Update(pid int64, fn func(payload []byte)) error {
	if tx.db.closed.Load() {
		return ErrClosed
	}
	if err := tx.db.checkPage(pid); err != nil {
		return err
	}
	if tx.writes == nil {
		tx.writes = make(map[int64][]func([]byte))
	}
	tx.writes[pid] = append(tx.writes[pid], fn)
	return nil
}

// AllocPage reserves the next unused page and returns its id, or an error
// when the database is full. Allocation is a metadata operation: the page
// was formatted (zero-filled) at Open.
func (db *DB) AllocPage() (int64, error) {
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	if db.closed.Load() {
		return 0, ErrClosed
	}
	if db.allocated >= db.opts.DBPages {
		return 0, fmt.Errorf("turbobp: database full (%d pages)", db.opts.DBPages)
	}
	pid := db.allocated
	db.allocated++
	return pid, nil
}

// Allocated returns the page-allocation watermark.
func (db *DB) Allocated() int64 {
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	return db.allocated
}

// SetAllocated restores the allocation watermark (callers persist it in a
// metadata page across restarts).
func (db *DB) SetAllocated(n int64) {
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	if n > db.allocated {
		db.allocated = n
	}
}

// PageSize returns the usable payload bytes per page.
func (db *DB) PageSize() int { return db.opts.PageSize }

// Pages returns the database capacity in pages.
func (db *DB) Pages() int64 { return db.opts.DBPages }

// Stats is a point-in-time summary of DB activity.
type Stats struct {
	Design      Design
	Reads       int64
	Updates     int64
	Commits     int64
	PoolHits    int64
	PoolMisses  int64
	SSDHits     int64
	SSDMisses   int64
	SSDOccupied int
	SSDDirty    int
	DiskReads   int64 // database device read I/Os
	DiskWrites  int64
	SSDReads    int64 // SSD device read I/Os
	SSDWrites   int64
	Checkpoints int64
	// VirtualTime is the furthest any partition's clock has advanced. On the
	// simulated backend that is model time: the CPU charged per access plus
	// the simulated devices' service and queueing times (a pool hit costs
	// exactly the CPU charge, Idle(d) exactly d). On the file backend
	// nothing is simulated, and the clock only paces background work — the
	// lazy cleaner, periodic checkpoints, the scrubber: every operation on
	// a partition advances it one millisecond, Idle(d) by d more.
	VirtualTime time.Duration

	Partitions   int   // page-range partitions the backend runs (1 on the simulated backend)
	LatchedReads int64 // reads served by the striped-latch fast path (no partition lock); file backend only

	// Commit durability (zero unless Options.CommitSync != CommitSyncNone on
	// the file backend).
	SyncedCommits   int64 // commits that requested durability
	WALSyncs        int64 // fsyncs actually issued for them
	MaxCommitFlight int   // largest group-commit flight observed

	// Fault-injection outcomes (zero unless Options.FaultSeed is set).
	SSDLosses      int64 // whole-SSD failures survived
	SSDRedoRecords int64 // WAL redo records applied to rebuild lost dirty SSD pages
	SSDReadErrors  int64 // SSD read attempts that failed and degraded to disk traffic

	// Silent-corruption defense (zero unless faults were injected or the
	// scrubber found decayed cells; see docs/FAILURES.md).
	CorruptDetected int64 // SSD frames that failed checksum/id/LSN verification
	CorruptRepaired int64 // of which healed transparently (drop, rewrite or WAL redo)
	CorruptRedo     int64 // dirty SSD frames rebuilt through WAL redo
	DiskCorruptions int64 // database pages that failed verification on read
	DiskRepairsSSD  int64 // of which healed in place from an intact SSD copy
	DiskRepairsWAL  int64 // of which rebuilt from the newest WAL record
	ScrubSweeps     int64 // scrubber wake-ups (zero unless Options.ScrubInterval is set)
	ScrubFrames     int64 // frames the scrubber verified
	ScrubRepairs    int64 // frames the scrubber rewrote in place from the disk copy
	RetiredSlots    int   // SSD slots permanently retired after repeated failures
	Quarantined     bool  // SSD demoted to pass-through after excessive retirements
}
