// Package engine implements the DBMS storage engine that hosts the SSD
// buffer-pool extension: the memory buffer pool, the disk manager over a
// striped HDD array, the write-ahead log, sharp checkpointing, crash
// recovery, and the §2.2 data flow between the buffer manager, SSD manager
// and disk manager.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"turbobp/internal/bufpool"
	"turbobp/internal/device"
	"turbobp/internal/metrics"
	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
	"turbobp/internal/wal"
)

// Config describes one engine instance. Zero fields take the paper's
// defaults (Table 2) where one exists.
type Config struct {
	// Config holds the SSD manager's parameters (design, S, the Table 2
	// knobs, page payload size, SSD profile, fault injector and
	// scrubbing). The engine reads them through field promotion and hands
	// the struct to ssd.NewManager whole. Faults also wraps every device.
	ssd.Config

	// Policy selects the memory pool's replacement policy. The zero value
	// is the paper's LRU-2; the SSD tier's heaps are LRU-2 whatever it is
	// (§3.1).
	Policy bufpool.Kind

	DBPages   int64 // database size in pages
	PoolPages int   // memory buffer pool frames

	CheckpointInterval time.Duration // 0 = checkpointing off
	ReadAhead          int           // read-ahead batch size in pages
	ReadAheadRamp      int           // pages read individually before read-ahead kicks in
	// ReadExpansion widens every single-page read to this many contiguous
	// pages until the buffer pool first fills, mimicking the SQL Server
	// 2008 R2 warm-up feature the paper observes in Figure 8 ("expands
	// every single-page read request to an 8 page request until the
	// buffer pool is filled"). 0 keeps the default of 8; negative
	// disables it.
	ReadExpansion int
	// WarmRestart enables the paper's §6 extension: checkpoints persist
	// the SSD buffer table, and recovery restores the (surviving) SSD
	// cache contents instead of starting cold.
	WarmRestart bool
	// FuzzyCheckpoints switches Checkpoint from the paper's sharp policy
	// (flush everything; fast restart) to a fuzzy one (flush nothing;
	// record the redo horizon as the oldest unflushed update). §2.3.3
	// discusses the tradeoff: fuzzy checkpoints are nearly free but make
	// the restart time grow with λ and the dirty set.
	FuzzyCheckpoints bool
	Classifier       ClassifierKind

	// CPU model: page accesses consume CPUPerAccess of one of cpuCores
	// hardware contexts. Scan pages charge a eighth of the point-access
	// cost. 0 takes the default; NewWithDevices charges none (real CPUs
	// charge themselves) and reports 0.
	CPUPerAccess time.Duration
}

// setDefaults fills zero fields; it is idempotent. A negative ReadAheadRamp
// or ReadExpansion stays negative and reads as "off" where it is used.
func (c *Config) setDefaults() {
	if c.PayloadSize <= 0 {
		c.PayloadSize = 64
	}
	if c.ReadAhead <= 0 {
		c.ReadAhead = 32
	}
	if c.ReadAheadRamp == 0 {
		c.ReadAheadRamp = 8
	}
	if c.ReadExpansion == 0 {
		c.ReadExpansion = 8
	}
	if c.SSDProfile == (device.Profile{}) {
		c.SSDProfile = device.PaperSSDProfile()
	}
	if c.PoolPages <= 0 {
		c.PoolPages = 256
	}
	if c.DBPages <= 0 {
		c.DBPages = 4096
	}
	if c.CPUPerAccess == 0 {
		c.CPUPerAccess = 1200 * time.Microsecond
	}
	// A read-ahead batch claims one frame per page; bound it so a single
	// batch can never exhaust the pool.
	if c.ReadAhead > c.PoolPages/2 {
		c.ReadAhead = c.PoolPages / 2
		if c.ReadAhead < 1 {
			c.ReadAhead = 1
		}
	}
}

// stripeUnit is the stripe unit, in pages, of the database disks: the
// paper's stripe set of device.PaperArrayDisks HDDs (Table 2).
const stripeUnit = 64

// hddProfile is the latency model of the database disks and the log disk.
var hddProfile = device.PaperHDDProfile()

// cpuCores is the CPU model's hardware contexts: the paper's box is a dual
// quad-core Nehalem with 16 contexts, saturating around 110k tpmC.
const cpuCores = 16

// retry bounds transient-I/O retries on the database-disk read/write paths.
var retry = device.DefaultRetryPolicy()

// logPageSize is the accounted size of one log page (8 KB, like the data
// pages the paper's Table 1 measures); many small records pack per page.
const logPageSize = 8192

// Stats counts engine-level activity. Device- and SSD-manager-level
// counters live on those components.
type Stats struct {
	Reads       int64 // page read requests
	Updates     int64 // page updates
	PoolHits    int64
	PoolMisses  int64
	Commits     int64
	Evictions   int64
	DirtyEvicts int64
	Checkpoints int64
	ScanPages   int64
	RedoApplied int64
	RedoSkipped int64
	SSDLosses   int64 // whole-SSD failures survived (fault injection)
	SSDLossRedo int64 // WAL redo records applied to rebuild lost dirty SSD pages

	// Silent-corruption defense (see docs/FAILURES.md). SSD-side detection
	// counters live on ssd.Stats; these count the engine's repairs.
	DiskCorruptions  int64 // disk pages that failed checksum/id verification
	DiskRepairsSSD   int64 // of which healed from an intact SSD copy
	DiskRepairsWAL   int64 // of which rebuilt from the newest WAL record
	CorruptRedo      int64 // dirty SSD frames reconstructed through WAL redo
	DiskReadRetries  int64 // failed disk read attempts that were re-issued
	DiskWriteRetries int64 // failed disk write attempts that were re-issued
	// Classification accuracy counts for disk reads: Truth<X>Label<Y>
	// counts reads truly of kind X that the classifier labelled Y (truth =
	// whether the read-ahead mechanism issued the read).
	TruthSeqLabelSeq   int64
	TruthSeqLabelRand  int64
	TruthRandLabelSeq  int64
	TruthRandLabelRand int64

	// CPUBusyNanos integrates the CPU model's busy contexts over virtual
	// time (sim.Resource.Busy): utilisation is it over elapsed time ×
	// cpuCores contexts.
	CPUBusyNanos int64

	// Pool is the memory pool's replacement-policy decision counters, read
	// from the policy at read time (all zero under default LRU-2).
	Pool bufpool.Stats
}

// Latencies holds per-tier operation latency histograms: reads broken down
// by the level of the hierarchy that served them, plus update and commit
// latencies. All times are virtual (simulated backend) or wall-clock (file
// backend).
type Latencies struct {
	PoolHit  metrics.Histogram // reads served from the memory pool
	SSDHit   metrics.Histogram // reads served from the SSD cache
	DiskRead metrics.Histogram // reads that went to the disks
	Commit   metrics.Histogram // commit (log force) waits
}

// Latencies returns the engine's latency histograms (live; callers must
// not mutate concurrently with engine use).
func (e *Engine) Latencies() *Latencies { return &e.lat }

// noteClassification records one disk read's truth/label pair.
func (e *Engine) noteClassification(truthSeq, labelSeq bool) {
	switch {
	case truthSeq && labelSeq:
		e.stats.TruthSeqLabelSeq++
	case truthSeq && !labelSeq:
		e.stats.TruthSeqLabelRand++
	case !truthSeq && labelSeq:
		e.stats.TruthRandLabelSeq++
	default:
		e.stats.TruthRandLabelRand++
	}
}

// Engine is one DBMS instance: the model over simulated devices (New) or
// the real-device engine over files (NewWithDevices).
type Engine struct {
	env *sim.Env
	cfg Config

	db     device.Device
	dbArr  *device.Array // non-nil when db is a simulated array
	ssdDev device.Device
	logDev device.Device

	pool *bufpool.Pool
	mgr  *ssd.Manager
	log  *wal.Log

	classifier classifier
	cpu        *sim.Resource
	stats      Stats
	lat        Latencies
	nextTx     uint64

	checkpointStop bool
	cpGen          uint64
	crashed        bool
	poolFilled     bool           // the buffer pool has filled at least once
	resolve        TxResolver     // in-doubt 2PC resolver (SetTxResolver); nil = presumed abort
	logReserved    device.PageNum // log pages held for admitted transactions (ReserveLog)

	// commitRecords (NewWithDevices): Commit appends a wal.TypeCommit
	// record before forcing the log, and replay tells committed
	// transactions from uncommitted ones and rolls the latter back. Off on
	// the model (New), whose replay treats every transaction as committed.
	commitRecords bool

	// live maps each transaction that has begun and has not committed or
	// been forgotten to the log's next LSN at its Begin, a bound below its
	// first record. A checkpoint's redo point never passes it (redoPoint).
	// Only commitRecords fills it: without commit records replay counts
	// every transaction as committed and never rolls one back.
	live map[uint64]uint64

	// evicting tracks dirty pages whose eviction writeback is in flight:
	// PopVictim has removed the page from the pool table but the WAL force
	// and SSD/disk write have not finished, so the page is in neither the
	// pool nor durably anywhere — a device read issued in that window would
	// return a stale image. Fetches of such a page wait on the signal, which
	// the evictor broadcasts (and removes) once the writeback settles. At
	// most one eviction of a page can be in flight (the page left the table),
	// so entries never collide. Clean evictions need no entry: a clean
	// frame's content already matches its durable copy.
	evicting map[page.ID]*sim.Signal

	// Free lists for encoded-page scratch buffers (bufSize bytes each) and
	// the [][]byte vectors that carry them through device reads. Per-engine;
	// the simulation kernel serializes all access, so no locking is needed.
	// Buffers must be taken and returned (not shared in place) because their
	// holder waits in virtual time mid-I/O.
	bufFree [][]byte
	vecFree [][][]byte

	// Free lists of access states (see task.go) and of the adapters that
	// park a blocking caller on one. A txOp is taken per Get/Update/Commit
	// and returned when its continuation fires, so steady-state transaction
	// traffic allocates no continuation closures.
	opFree []*txOp
	fwFree []*frameWait

	// Free list of retrying disk-transfer states (diskOp) and a one-element
	// scratch vector for repairDiskPage's single-buffer heal write.
	diskOpFree  []*diskOp
	scratchVec1 [][]byte
}

// New builds the model engine inside env: simulated devices (Table 1's
// profiles), CPU charged at Config.CPUPerAccess, a log that stays a timing
// model, redo-only replay and a single-latch pool.
func New(env *sim.Env, cfg Config) *Engine {
	cfg.setDefaults()
	arr := device.NewArray(env, hddProfile, device.PaperArrayDisks, stripeUnit, device.PageNum(cfg.DBPages))
	var ssdDev device.Device
	if cfg.SSDFrames > 0 && cfg.Design != ssd.NoSSD {
		ssdDev = device.NewSSD(env, cfg.SSDProfile, device.PageNum(cfg.SSDFrames))
	}
	logDev := device.NewHDD(env, hddProfile, 1<<30)
	logDev.DiscardContent() // log pages are write-only traffic; keep timing, drop payloads
	pool := bufpool.New(cfg.PoolPages, cfg.PayloadSize, int(cfg.DBPages), cfg.Policy)
	e := newEngine(env, cfg, arr, ssdDev, logDev, 1<<30, pool)
	e.dbArr = arr
	return e
}

// NewWithDevices builds the real-device engine over caller-provided devices
// (the file backend's device.File slices; ssdDev may be nil for NoSSD
// configurations). Its log persists onto logDev and is as large as logDev,
// Commit writes a commit record and replay rolls back uncommitted
// transactions, it charges no CPU time, and its pool runs in striped-latch
// mode (bufpool.NewStriped).
func NewWithDevices(env *sim.Env, cfg Config, dbDev, ssdDev device.Device, logDev *device.File) *Engine {
	cfg.setDefaults()
	cfg.CPUPerAccess = 0
	pool := bufpool.NewStriped(cfg.PoolPages, cfg.PayloadSize, int(cfg.DBPages), cfg.Policy)
	e := newEngine(env, cfg, dbDev, ssdDev, logDev, logDev.Capacity(), pool)
	e.log.SetPersist(true)
	e.commitRecords = true
	return e
}

// newEngine is the part of New and NewWithDevices that does not depend on
// the backend: it builds the engine over the devices, a log of logCap pages
// and pool, and starts the background processes.
func newEngine(env *sim.Env, cfg Config, dbDev, ssdDev, logDev device.Device, logCap device.PageNum, pool *bufpool.Pool) *Engine {
	if cfg.Faults != nil {
		dbDev = cfg.Faults.Wrap("db", dbDev)
		if ssdDev != nil {
			ssdDev = cfg.Faults.Wrap("ssd", ssdDev)
		}
		logDev = cfg.Faults.Wrap("wal", logDev)
	}
	e := &Engine{env: env, cfg: cfg, db: dbDev, ssdDev: ssdDev, logDev: logDev, pool: pool,
		evicting: make(map[page.ID]*sim.Signal), live: make(map[uint64]uint64)}
	// The log packs records into full 8 KB pages; the device charges one
	// page-write per log page, so the page size here is the accounted 8 KB
	// regardless of the (small) simulated payloads.
	e.log = wal.New(env, logDev, logPageSize, logCap)
	e.mgr = e.newManager()
	e.classifier = newClassifier(cfg.Classifier)
	e.cpu = sim.NewResource(env, cpuCores)
	e.mgr.StartCleaner()
	e.mgr.StartScrubber()
	if cfg.CheckpointInterval > 0 {
		e.startCheckpointer()
	}
	return e
}

// newManager builds the SSD manager for the current devices from the
// engine's SSD configuration, passed whole.
func (e *Engine) newManager() *ssd.Manager {
	cfg := e.cfg.Config
	dev := e.ssdDev
	if dev == nil || cfg.Design == ssd.NoSSD {
		dev = device.NewSSD(e.env, cfg.SSDProfile, 0)
		cfg.SSDFrames = 0
	}
	return ssd.NewManager(e.env, dev, (*diskWriter)(e), (*walRepairer)(e), int(e.cfg.DBPages), cfg)
}

// walRepairer adapts the engine's page-granular WAL redo to the SSD
// manager's Repairer dependency (corrupt dirty frames, scrubber and lazy
// cleaner detections).
type walRepairer Engine

// RepairDirtyPage reconstructs a uniquely-dirty page whose SSD frame was
// condemned.
func (r *walRepairer) RepairDirtyPage(p *sim.Proc, pid page.ID) error {
	return (*Engine)(r).repairDirtySSD(p, pid)
}

// diskWriter adapts the engine's database array to the SSD manager's Disk
// interface (logical page ids map one-to-one onto array pages). It also
// implements ssd.DiskReader so the scrubber can fetch disk copies for
// in-place frame repair. Both route through the engine's retrying disk
// transfers.
type diskWriter Engine

// WriteEncodedTask writes a run of encoded pages to the database disks.
func (d *diskWriter) WriteEncodedTask(t *sim.Task, start page.ID, bufs [][]byte, k func(error)) {
	(*Engine)(d).dbWriteTask(t, device.PageNum(start), bufs, k)
}

// ReadEncodedTask reads one encoded page image from the database disks.
func (d *diskWriter) ReadEncodedTask(t *sim.Task, pid page.ID, buf []byte, k func(error)) {
	e := (*Engine)(d)
	e.dbTransfer(t, device.PageNum(pid), append(e.getVecShell(1), buf), false, true, k)
}

// dbRead is dbReadTask for a blocking process.
func (e *Engine) dbRead(p *sim.Proc, start device.PageNum, bufs [][]byte) error {
	return p.Await(func(t *sim.Task, done func(error)) { e.dbReadTask(t, start, bufs, done) })
}

// dbWrite is dbWriteTask for a blocking process.
func (e *Engine) dbWrite(p *sim.Proc, start device.PageNum, bufs [][]byte) error {
	return p.Await(func(t *sim.Task, done func(error)) { e.dbWriteTask(t, start, bufs, done) })
}

// diskOp carries one database-disk transfer, retrying transient failures
// under the configured policy; pooled so steady-state traffic allocates
// nothing.
type diskOp struct {
	e       *Engine
	t       *sim.Task
	start   device.PageNum
	bufs    [][]byte
	k       func(error)
	write   bool
	ownsVec bool // return bufs' shell (not the buffers) to the vec pool
	attempt int

	onDone  func(error)
	onRetry func()
}

func (e *Engine) getDiskOp() *diskOp {
	if n := len(e.diskOpFree); n > 0 {
		o := e.diskOpFree[n-1]
		e.diskOpFree[n-1] = nil
		e.diskOpFree = e.diskOpFree[:n-1]
		return o
	}
	o := &diskOp{e: e}
	o.onDone = o.done
	o.onRetry = o.reissue
	return o
}

func (o *diskOp) reissue() {
	if o.write {
		o.e.db.WriteTask(o.t, o.start, o.bufs, o.onDone)
	} else {
		o.e.db.ReadTask(o.t, o.start, o.bufs, o.onDone)
	}
}

func (o *diskOp) done(err error) {
	e := o.e
	if err != nil && retry.Retryable(err, o.attempt) {
		if o.write {
			e.stats.DiskWriteRetries++
		} else {
			e.stats.DiskReadRetries++
		}
		d := retry.Delay(o.attempt)
		o.attempt++
		if d > 0 {
			o.t.Sleep(d, o.onRetry)
			return
		}
		o.reissue()
		return
	}
	k := o.k
	if o.ownsVec {
		o.bufs[0] = nil
		e.putVecShell(o.bufs[:0])
	}
	o.t, o.bufs, o.k = nil, nil, nil
	e.diskOpFree = append(e.diskOpFree, o)
	k(err)
}

// dbTransfer issues one retrying transfer; ownsVec hands it bufs' shell
// (not the buffers) to return to the vec pool at completion.
func (e *Engine) dbTransfer(t *sim.Task, start device.PageNum, bufs [][]byte, write, ownsVec bool, k func(error)) {
	o := e.getDiskOp()
	o.t, o.start, o.bufs, o.k, o.write, o.ownsVec, o.attempt = t, start, bufs, k, write, ownsVec, 1
	o.reissue()
}

// dbReadTask reads a run of encoded pages from the database disks.
func (e *Engine) dbReadTask(t *sim.Task, start device.PageNum, bufs [][]byte, k func(error)) {
	e.dbTransfer(t, start, bufs, false, false, k)
}

// dbWriteTask writes a run of encoded pages to the database disks.
func (e *Engine) dbWriteTask(t *sim.Task, start device.PageNum, bufs [][]byte, k func(error)) {
	e.dbTransfer(t, start, bufs, true, false, k)
}

// Env returns the simulation environment.
func (e *Engine) Env() *sim.Env { return e.env }

// Config returns the effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a copy of the engine counters, with the CPU model's busy
// time and the buffer pool's replacement-policy counters filled in.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.CPUBusyNanos = int64(e.cpu.Busy())
	s.Pool = e.pool.PolicyStats()
	return s
}

// SSD returns the SSD manager (for stats and tests).
func (e *Engine) SSD() *ssd.Manager { return e.mgr }

// Log returns the write-ahead log.
func (e *Engine) Log() *wal.Log { return e.log }

// Pool returns the memory buffer pool.
func (e *Engine) Pool() *bufpool.Pool { return e.pool }

// DiskArray returns the simulated database disk array, or nil when the
// engine runs over caller-provided devices.
func (e *Engine) DiskArray() *device.Array { return e.dbArr }

// DBDevice returns the database device.
func (e *Engine) DBDevice() device.Device { return e.db }

// SSDDevice returns the SSD device, nil when the design has none.
func (e *Engine) SSDDevice() device.Device { return e.ssdDev }

// LogDevice returns the log device.
func (e *Engine) LogDevice() device.Device { return e.logDev }

// bufSize is the encoded page image size.
func (e *Engine) bufSize() int { return page.HeaderSize + e.cfg.PayloadSize }

// getPageBuf takes an encoded-page scratch buffer from the free list,
// allocating only when the list is empty.
func (e *Engine) getPageBuf() []byte {
	if n := len(e.bufFree); n > 0 {
		b := e.bufFree[n-1]
		e.bufFree[n-1] = nil
		e.bufFree = e.bufFree[:n-1]
		return b
	}
	return make([]byte, e.bufSize())
}

// putPageBuf returns a scratch buffer for reuse. Callers must be done with
// every alias of b: its contents may be overwritten by the next taker.
func (e *Engine) putPageBuf(b []byte) {
	if cap(b) < e.bufSize() {
		return
	}
	e.bufFree = append(e.bufFree, b[:e.bufSize()])
}

// getVec returns an n-element vector of pooled page buffers.
func (e *Engine) getVec(n int) [][]byte {
	var v [][]byte
	if m := len(e.vecFree); m > 0 {
		v = e.vecFree[m-1]
		e.vecFree[m-1] = nil
		e.vecFree = e.vecFree[:m-1]
	}
	if cap(v) < n {
		v = make([][]byte, 0, n)
	}
	v = v[:0]
	for i := 0; i < n; i++ {
		v = append(v, e.getPageBuf())
	}
	return v
}

// putVec returns a vector and all its buffers to the free lists.
func (e *Engine) putVec(v [][]byte) {
	for i, b := range v {
		e.putPageBuf(b)
		v[i] = nil
	}
	e.vecFree = append(e.vecFree, v[:0])
}

// getVecShell returns an empty pooled vector with capacity for n entries;
// the caller provides the buffers (unlike getVec, which fills them).
func (e *Engine) getVecShell(n int) [][]byte {
	if m := len(e.vecFree); m > 0 {
		v := e.vecFree[m-1]
		e.vecFree[m-1] = nil
		e.vecFree = e.vecFree[:m-1]
		if cap(v) >= n {
			return v[:0]
		}
	}
	return make([][]byte, 0, n)
}

// putVecShell returns a vector shell whose buffers the caller owns.
func (e *Engine) putVecShell(v [][]byte) {
	for i := range v {
		v[i] = nil
	}
	e.vecFree = append(e.vecFree, v[:0])
}

// FormatDB initializes every database page (id stamped, LSN 0, zero
// payload) outside simulated time — the equivalent of loading the benchmark
// database before the measured run. It installs a fill encoding those bytes:
// simulated disks run it lazily, on a read of a never-written page, so the
// image costs no memory; the file backend writes every page now, since a hole
// would read as zeros and fail its checksum.
func (e *Engine) FormatDB() error {
	f, ok := e.db.(device.Formatter)
	if !ok {
		return errors.New("engine: database device does not support formatting")
	}
	zeros := make([]byte, e.cfg.PayloadSize)
	// Encoding page 0 now reports a bad geometry here; after it the fill cannot fail.
	if err := page.Encode(&page.Page{Payload: zeros}, make([]byte, e.bufSize())); err != nil {
		return err
	}
	return f.Format(func(pid device.PageNum, buf []byte) {
		_ = page.Encode(&page.Page{ID: page.ID(pid), LSN: 0, Payload: zeros}, buf)
	})
}

// ErrNoFrames indicates every buffer frame is busy mid-transfer — the pool
// is too small for the offered concurrency.
var ErrNoFrames = errors.New("engine: no reclaimable buffer frames")

// ErrPageRange is returned for accesses beyond the database size.
var ErrPageRange = errors.New("engine: page id out of range")

// checkPage validates a page id against the database size.
func (e *Engine) checkPage(pid page.ID) error {
	if pid < 0 || int64(pid) >= e.cfg.DBPages {
		return fmt.Errorf("%w: %d of %d", ErrPageRange, pid, e.cfg.DBPages)
	}
	return nil
}

// Begin starts a transaction and returns its id. On the real-device engine
// (commit records) the transaction stays live — holding back every
// checkpoint's redo point — until Commit makes it durable or Forget
// releases it.
func (e *Engine) Begin() uint64 {
	e.nextTx++
	if e.commitRecords {
		e.live[e.nextTx] = e.log.NextLSN()
	}
	return e.nextTx
}

// Forget releases a transaction that will never commit and has nothing left
// for recovery to undo: it logged no page image, or a committed compensating
// transaction has restored its before-images. Checkpoints may then move past
// its records.
func (e *Engine) Forget(tx uint64) { delete(e.live, tx) }

// Commit is CommitTask for a blocking process.
func (e *Engine) Commit(p *sim.Proc, tx uint64) error {
	return p.Await(func(t *sim.Task, done func(error)) { e.CommitTask(t, tx, done) })
}

// LogUndo appends a presumed-abort undo record: page pid's before-image,
// captured by the caller immediately before the matching Update. Recovery
// applies undo records of transactions that neither committed nor resolved
// to commit, so a dirty eviction that forced (and wrote back) uncommitted
// state cannot leak an aborted transaction's data into the database.
func (e *Engine) LogUndo(pid page.ID, tx uint64, before []byte) uint64 {
	return e.log.Append(wal.Record{Type: wal.TypeUndo, Page: pid, TxID: tx, Payload: before})
}

// Prepare writes and forces a two-phase-commit prepare record binding local
// transaction tx to the coordinator's global transaction id gtx. After
// Prepare returns, the participant is in-doubt: recovery resolves it by
// asking the coordinator log (commit if a decision was recorded, abort
// otherwise — presumed abort).
func (e *Engine) Prepare(p *sim.Proc, tx, gtx uint64) error {
	lsn := e.log.Append(wal.Record{Type: wal.TypePrepare, TxID: tx, StartLSN: gtx})
	e.log.Flush(p, lsn)
	return nil
}

// AdoptDurableTxIDs floors the engine's transaction-id counter past every
// durable record's TxID — called after wal.LoadDurable on reopen, so a new
// incarnation's transactions can never collide with recovered ones — and
// returns the highest global (prepare) transaction id seen, so the
// coordinator's counter can be floored the same way.
func (e *Engine) AdoptDurableTxIDs() uint64 {
	var maxGtx uint64
	for _, rec := range e.log.Durable() {
		if rec.TxID > e.nextTx {
			e.nextTx = rec.TxID
		}
		if rec.Type == wal.TypePrepare && rec.StartLSN > maxGtx {
			maxGtx = rec.StartLSN
		}
	}
	return maxGtx
}

// chargeCPU occupies one hardware context for d of processing time.
func (e *Engine) chargeCPU(p *sim.Proc, d time.Duration) {
	if d == 0 {
		return
	}
	e.cpu.Acquire(p)
	p.Sleep(d)
	e.cpu.Release()
}

// frameWait adapts a frame-returning completion to a process parked in
// Await; pooled, with k bound once.
type frameWait struct {
	f    *bufpool.Frame
	done func(error)
	k    func(*bufpool.Frame, error)
}

// awaitFrame runs start — a task-form access completing with a frame — for
// the blocking process p.
func (e *Engine) awaitFrame(p *sim.Proc, start func(t *sim.Task, k func(*bufpool.Frame, error))) (*bufpool.Frame, error) {
	var w *frameWait
	if n := len(e.fwFree); n > 0 {
		w = e.fwFree[n-1]
		e.fwFree = e.fwFree[:n-1]
	} else {
		w = &frameWait{}
		w.k = func(f *bufpool.Frame, err error) {
			w.f = f
			w.done(err)
		}
	}
	err := p.Await(func(t *sim.Task, done func(error)) {
		w.done = done
		start(t, w.k)
	})
	f := w.f
	w.f, w.done = nil, nil
	e.fwFree = append(e.fwFree, w)
	return f, err
}

// Get is GetTask for a blocking process. The frame contents are only valid
// until the caller next yields to the simulator.
func (e *Engine) Get(p *sim.Proc, pid page.ID) (*bufpool.Frame, error) {
	return e.awaitFrame(p, func(t *sim.Task, k func(*bufpool.Frame, error)) { e.GetTask(t, pid, k) })
}

// Update is UpdateTask for a blocking process.
func (e *Engine) Update(p *sim.Proc, tx uint64, pid page.ID, mutate func(payload []byte)) error {
	return p.Await(func(t *sim.Task, done func(error)) { e.UpdateTask(t, tx, pid, mutate, done) })
}

// fetch brings pid into the pool on a miss, for a scan: the access path's
// fetch (txOp.fetch) run for a blocking process, without the point-access
// CPU charge or a miss-latency sample.
func (e *Engine) fetch(p *sim.Proc, pid page.ID, viaReadAhead, truthScan bool) (*bufpool.Frame, error) {
	return e.awaitFrame(p, func(t *sim.Task, k func(*bufpool.Frame, error)) {
		o := e.getOp()
		o.t, o.pid, o.gk, o.kind = t, pid, k, opFetch
		o.viaReadAhead, o.truthScan = viaReadAhead, truthScan
		o.fetch()
	})
}

// claimFrame obtains a frame — the free list, or by evicting the LRU-2
// victim through the active SSD design — for a blocking process: the access
// path's claim (txOp.claim) stopped once the frame is in hand.
func (e *Engine) claimFrame(p *sim.Proc) (*bufpool.Frame, error) {
	return e.awaitFrame(p, func(t *sim.Task, k func(*bufpool.Frame, error)) {
		o := e.getOp()
		o.t, o.gk, o.kind = t, k, opClaim
		o.claim()
	})
}

// stillCleanFn returns TAC's race check: the admission proceeds only if
// the page is still resident in the same frame and has not been dirtied.
func (e *Engine) stillCleanFn(pid page.ID, f *bufpool.Frame) func() bool {
	lsn := f.Pg.LSN
	return func() bool {
		cur := e.pool.Peek(pid)
		return cur == f && !cur.Dirty && cur.Pg.LSN == lsn
	}
}

// readSpan decides how many contiguous pages a disk read of pid fetches and
// latches poolFilled. During warm-up (the pool has never filled) single-page
// random reads are widened to ReadExpansion contiguous pages — SQL Server
// 2008 R2's start-up behaviour, visible as the initial read burst of the
// paper's Figure 8. The extra pages land in free frames as sequential
// arrivals (installRead).
func (e *Engine) readSpan(pid page.ID, viaReadAhead bool) int {
	n := 1
	if !viaReadAhead && e.cfg.ReadExpansion > 1 && !e.poolFilled &&
		e.pool.FreeFrames() >= e.cfg.ReadExpansion {
		n = e.cfg.ReadExpansion
		if rest := e.cfg.DBPages - int64(pid); int64(n) > rest {
			n = int(rest)
		}
	}
	if e.pool.FreeFrames() == 0 {
		e.poolFilled = true
	}
	return n
}

// installRead decodes the fetched images: the requested page into f, the
// expansion tail into free frames.
func (e *Engine) installRead(pid page.ID, bufs [][]byte, f *bufpool.Frame) error {
	if err := e.decodeInto(pid, bufs[0], f); err != nil {
		return err
	}
	// Stash the expansion tail into free frames; they arrived as part of
	// one contiguous request, so they count as sequential for admission.
	for i := 1; i < len(bufs); i++ {
		id := pid + page.ID(i)
		if e.pool.Peek(id) != nil || e.mgr.IsDirty(id) || e.evicting[id] != nil {
			continue // resident, SSD-newer, or mid-writeback (image is stale)
		}
		g := e.pool.TakeFree()
		if g == nil {
			e.poolFilled = true
			break
		}
		if err := e.decodeInto(id, bufs[i], g); err != nil {
			e.pool.Release(g)
			var ce *page.ChecksumError
			if errors.As(err, &ce) {
				// A corrupt page in the opportunistic expansion tail is not
				// the page the caller asked for: count the detection and skip
				// it — the repair ladder runs when the page is read directly.
				e.stats.DiskCorruptions++
				continue
			}
			return err
		}
		g.Seq = true
		e.pool.Insert(g, e.env.Now())
	}
	return nil
}

// decodeInto fills frame f from an encoded page image, tolerating blank
// (never-formatted) device space. Verification failures come back as
// *page.ChecksumError annotated with the disk location, so callers can
// route them into the repair ladder (repairDiskPage).
func (e *Engine) decodeInto(pid page.ID, buf []byte, f *bufpool.Frame) error {
	if page.Blank(buf) {
		f.Pg.ID = pid
		f.Pg.LSN = 0
		for i := range f.Pg.Payload {
			f.Pg.Payload[i] = 0
		}
		return nil
	}
	var got page.Page
	if err := page.Decode(buf, &got); err != nil {
		var ce *page.ChecksumError
		if errors.As(err, &ce) {
			ce.ID, ce.Device, ce.Slot = pid, "db", int64(pid)
		}
		return err
	}
	if got.ID != pid {
		return &page.ChecksumError{ID: pid, Device: "db", Slot: int64(pid),
			Reason: "id", Got: uint64(got.ID), Want: uint64(pid)}
	}
	f.Pg.ID = got.ID
	f.Pg.LSN = got.LSN
	copy(f.Pg.Payload, got.Payload)
	return nil
}

// repairDiskPage rebuilds frame f after pid's disk image failed
// verification, climbing the repair ladder: an intact SSD copy first (the
// disk is healed in place by writing it back — safe, the SSD version is
// never older than the disk's), then the newest durable WAL record (a full
// after-image; the rebuilt frame is marked dirty so it reflushes). When
// neither source exists the typed cause is surfaced — never a silently
// wrong page.
func (e *Engine) repairDiskPage(p *sim.Proc, pid page.ID, f *bufpool.Frame, cause error) error {
	e.stats.DiskCorruptions++
	f.Pg.ID = pid
	hit, err := e.mgr.Read(p, pid, &f.Pg)
	if err == nil && hit {
		buf := e.getPageBuf()
		werr := page.Encode(&f.Pg, buf)
		if werr == nil {
			e.scratchVec1 = append(e.scratchVec1[:0], buf)
			werr = e.dbWrite(p, device.PageNum(pid), e.scratchVec1)
			e.scratchVec1[0] = nil
		}
		e.putPageBuf(buf)
		if werr != nil {
			// The heal write failed, but the frame itself is good; keep it
			// dirty so the normal flush machinery retries the disk.
			f.Dirty = true
			f.RecLSN = f.Pg.LSN
		}
		e.stats.DiskRepairsSSD++
		return nil
	}
	if err != nil {
		var dce *ssd.DirtyCorruptError
		if !errors.As(err, &dce) {
			return err
		}
		// The SSD copy was corrupt too (and dirty); fall through to the WAL,
		// which by I1/I2 still holds the page's newest record.
	}
	if rec, ok := e.log.LatestUpdate(pid); ok {
		f.Pg.ID = pid
		copy(f.Pg.Payload, rec.Payload)
		f.Pg.LSN = rec.LSN
		f.Dirty = true
		f.RecLSN = rec.LSN
		e.stats.DiskRepairsWAL++
		return nil
	}
	return fmt.Errorf("engine: page %d unrepairable (no SSD copy, no WAL record): %w", pid, cause)
}

// repairDirtySSD reconstructs a uniquely-dirty page whose SSD frame was
// condemned for corruption — the page-granular variant of RecoverSSDLoss.
// The stale disk version is fetched and the newest durable WAL record (a
// full after-image, guaranteed present by invariant I2) applied on top;
// the page stays dirty in the pool until a checkpoint or eviction reflushes
// it.
func (e *Engine) repairDirtySSD(p *sim.Proc, pid page.ID) error {
	f, err := e.Get(p, pid)
	if err != nil {
		return err
	}
	if rec, ok := e.log.LatestUpdate(pid); ok && rec.LSN > f.Pg.LSN {
		e.pool.MutateFrame(f, func(payload []byte) { copy(payload, rec.Payload) })
		f.Pg.LSN = rec.LSN
		e.stats.CorruptRedo++
	}
	if !f.Dirty {
		f.Dirty = true
		f.RecLSN = f.Pg.LSN
		// Mirror Update's protocol: dirtying the pool copy invalidates any
		// SSD copy (the stale disk version may have been re-admitted by the
		// fetch above, e.g. under TAC).
		e.mgr.Invalidate(pid)
	}
	return nil
}

// DirtyPoolPages returns the dirty page ids, sorted (checkpoint order).
func (e *Engine) DirtyPoolPages() []page.ID {
	ids := e.pool.DirtyPages()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
