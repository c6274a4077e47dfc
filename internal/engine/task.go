package engine

import (
	"errors"
	"time"

	"turbobp/internal/bufpool"
	"turbobp/internal/device"
	"turbobp/internal/fault"
	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
	"turbobp/internal/wal"
)

// This file holds the engine's access path — Get, Update, Commit, and the
// fetch, frame claim, eviction, SSD probe and disk read underneath them —
// written once, in task form: device waits are continuations instead of a
// parked goroutine. OLTP workers call GetTask/UpdateTask/CommitTask
// directly; blocking processes (the facade's operations, scans, recovery,
// repair) reach the same code through the few-line sim.Proc.Await entries in
// engine.go.
//
// Continuation state lives in a per-access txOp taken from a free list, with
// method continuations bound once per struct, so the steady-state access
// path allocates no closures.
//
// SSD-loss recovery and corruption repair are the places the path re-enters
// the blocking world: they replay the WAL and walk the repair ladder with
// multi-step straight-line I/O, so the access spawns a process for them and
// continues from it, on that process's goroutine. The golden experiments
// never lose or corrupt a device; only fault runs take those bridges.

// opKind selects where a txOp's access path starts and stops.
type opKind uint8

const (
	opGet    opKind = iota // CPU charge → pool lookup → fetch; completes with the frame
	opUpdate               // as opGet, then mutates and logs; completes with an error
	opFetch                // a scan's miss: fetch only, no CPU charge or latency sample
	opClaim                // a scan's read-ahead run: claim a frame and stop
)

// txOp carries one Get/Update access (or one Commit) from CPU charge through
// frame claim, eviction, SSD probe and disk read to the caller's
// continuation.
type txOp struct {
	e    *Engine
	t    *sim.Task
	kind opKind
	pid  page.ID
	t0   time.Duration

	ssdHit       bool // this access's SSD probe served the page
	viaReadAhead bool
	truthScan    bool
	seqLabel     bool

	tx     uint64
	mutate func(payload []byte)
	gk     func(*bufpool.Frame, error) // frame completion (opGet, opFetch, opClaim)
	uk     func(error)                 // Update completion
	ck     func(error)                 // Commit completion

	v     *bufpool.Frame // eviction victim
	dirty bool           // victim was dirty
	f     *bufpool.Frame // claimed frame
	bufs  [][]byte       // in-flight disk read vector

	evictSig *sim.Signal // in-flight dirty eviction published in e.evicting
	evictPid page.ID     // the victim page the signal is registered under

	onCPUAcquired  func()            // bound: CPU resource granted
	onCPUDone      func()            // bound: CPU slice elapsed
	onEvictFlushed func()            // bound: WAL forced before eviction
	onEvicted      func(error)       // bound: manager routed the victim
	onSSDRead      func(bool, error) // bound: SSD probe finished
	onDbRead       func(error)       // bound: disk read finished
	onCommitFlush  func()            // bound: commit's WAL flush finished
	onEvictWaited  func()            // bound: another access's eviction settled
}

func (e *Engine) getOp() *txOp {
	if n := len(e.opFree); n > 0 {
		o := e.opFree[n-1]
		e.opFree[n-1] = nil
		e.opFree = e.opFree[:n-1]
		return o
	}
	o := &txOp{e: e}
	o.onCPUAcquired = o.cpuAcquired
	o.onCPUDone = o.cpuDone
	o.onEvictFlushed = o.evict
	o.onEvicted = o.evicted
	o.onSSDRead = o.ssdRead
	o.onDbRead = o.dbRead
	o.onCommitFlush = o.commitFlushed
	o.onEvictWaited = o.evictWaited
	return o
}

// recycle returns the op to the free list; callers grab the continuation
// they are about to invoke first, since the next access may reuse the op
// immediately.
func (o *txOp) recycle() {
	e := o.e
	o.t, o.mutate, o.gk, o.uk, o.ck = nil, nil, nil, nil, nil
	o.v, o.f, o.bufs = nil, nil, nil
	o.ssdHit = false
	e.opFree = append(e.opFree, o)
}

// GetTask reads a page with a random (point) access and continues with its
// frame, whose contents are only valid until the caller next yields to the
// simulator.
func (e *Engine) GetTask(t *sim.Task, pid page.ID, k func(*bufpool.Frame, error)) {
	if err := e.checkPage(pid); err != nil {
		k(nil, err)
		return
	}
	o := e.getOp()
	o.t, o.pid, o.gk, o.kind = t, pid, k, opGet
	o.viaReadAhead, o.truthScan = false, false
	o.start()
}

// UpdateTask applies mutate to the page's payload under a transaction,
// logging the after-image.
func (e *Engine) UpdateTask(t *sim.Task, tx uint64, pid page.ID, mutate func(payload []byte), k func(error)) {
	if err := e.checkPage(pid); err != nil {
		k(err)
		return
	}
	o := e.getOp()
	o.t, o.pid, o.uk, o.kind = t, pid, k, opUpdate
	o.tx, o.mutate = tx, mutate
	o.viaReadAhead, o.truthScan = false, false
	o.start()
}

// CommitTask forces the log for everything the transaction wrote (group
// commit) and counts the commit. Two crash points bracket the log force:
// pre-wal-flush crashes with the transaction's records possibly volatile
// (the commit may be lost), post-wal-flush crashes with the records durable
// but the caller never acknowledged (the classic commit ambiguity).
func (e *Engine) CommitTask(t *sim.Task, tx uint64, k func(error)) {
	if e.cfg.Faults.At(fault.SitePreWALFlush) {
		k(fault.ErrCrashPoint)
		return
	}
	if e.cfg.CommitRecords {
		e.log.Append(wal.Record{Type: wal.TypeCommit, TxID: tx})
	}
	o := e.getOp()
	o.t, o.ck, o.tx = t, k, tx
	o.t0 = e.env.Now()
	e.log.FlushTask(t, e.log.NextLSN()-1, o.onCommitFlush)
}

func (o *txOp) commitFlushed() {
	e := o.e
	ck, t0 := o.ck, o.t0
	if e.cfg.CommitRecords {
		delete(e.live, o.tx) // the commit record is durable
	}
	o.recycle()
	if e.cfg.Faults.At(fault.SitePostWALFlush) {
		ck(fault.ErrCrashPoint)
		return
	}
	e.lat.Commit.Observe(e.env.Now() - t0)
	e.stats.Commits++
	ck(nil)
}

// start charges CPU for the access, then resolves it against the pool.
func (o *txOp) start() {
	e := o.e
	o.t0 = e.env.Now()
	if e.cfg.CPUPerAccess <= 0 {
		o.cpuCharged()
		return
	}
	e.cpu.AcquireFunc(o.onCPUAcquired)
}

func (o *txOp) cpuAcquired() { o.t.Sleep(o.e.cfg.CPUPerAccess, o.onCPUDone) }

func (o *txOp) cpuDone() {
	o.e.cpu.Release()
	o.cpuCharged()
}

func (o *txOp) cpuCharged() {
	e := o.e
	e.stats.Reads++
	if f := e.pool.Lookup(o.pid, e.env.Now()); f != nil {
		e.stats.PoolHits++
		e.lat.PoolHit.Observe(e.env.Now() - o.t0)
		o.finish(f, nil)
		return
	}
	o.fetch()
}

// fetch brings o.pid into the pool on a miss: SSD first, then disk.
// viaReadAhead records whether the read-ahead mechanism issued the read;
// truthScan records whether the read actually belongs to a sequential scan
// (the ground truth for classification accuracy — a scan's ramp-up pages
// are truly sequential yet read individually, which is exactly why the
// paper's read-ahead classifier is ~82% rather than 100% accurate).
func (o *txOp) fetch() {
	if sig := o.e.evicting[o.pid]; sig != nil {
		// The page's dirty eviction is mid-writeback: reading the device now
		// would return a stale image (see Engine.evicting). Continue once the
		// writeback settles.
		sig.WaitFunc(o.onEvictWaited)
		return
	}
	o.fetchMiss()
}

// evictWaited resumes a fetch that waited out an in-flight dirty eviction
// of its page: re-wait if another eviction started, serve from the pool if
// a faster access re-installed the page, else miss normally.
func (o *txOp) evictWaited() {
	e := o.e
	if sig := e.evicting[o.pid]; sig != nil {
		sig.WaitFunc(o.onEvictWaited)
		return
	}
	if g := e.pool.Lookup(o.pid, e.env.Now()); g != nil {
		e.stats.PoolHits++
		o.finishFetch(g, nil)
		return
	}
	o.fetchMiss()
}

// fetchMiss is the body of fetch once no eviction of the page is in flight.
func (o *txOp) fetchMiss() {
	e := o.e
	e.stats.PoolMisses++
	o.seqLabel = e.classifier.label(o.pid, o.viaReadAhead)
	e.mgr.TACNoteMiss(o.pid, !o.seqLabel)
	o.claim()
}

// claim obtains a frame: the free list, or by evicting the LRU-2 victim
// through the active SSD design.
func (o *txOp) claim() {
	e := o.e
	if f := e.pool.TakeFree(); f != nil {
		o.claimed(f, nil)
		return
	}
	v := e.pool.PopVictim()
	if v == nil {
		o.claimed(nil, ErrNoFrames)
		return
	}
	e.stats.Evictions++
	o.v, o.dirty = v, v.Dirty
	if o.dirty {
		e.stats.DirtyEvicts++
		// Until the writeback lands the page has no durable up-to-date copy
		// anywhere; publish the eviction so concurrent fetches wait instead
		// of reading a stale device image (see Engine.evicting). evictSettled
		// resolves it on every completion path.
		o.evictSig = sim.NewSignal(e.env)
		o.evictPid = v.Pg.ID
		e.evicting[o.evictPid] = o.evictSig
		// WAL protocol: force the log before the page can be written to the
		// SSD or the disk (§2.4).
		e.log.FlushTask(o.t, v.Pg.LSN, o.onEvictFlushed)
		return
	}
	o.evict()
}

// evictSettled resolves the in-flight-eviction registration made by claim:
// the victim's writeback reached the device (or definitively failed and the
// victim was released), so waiting fetches can re-resolve the page.
func (o *txOp) evictSettled() {
	if o.evictSig == nil {
		return
	}
	delete(o.e.evicting, o.evictPid)
	o.evictSig.Broadcast()
	o.evictSig = nil
}

func (o *txOp) evict() {
	o.e.mgr.OnEvictTask(o.t, &o.v.Pg, o.dirty, !o.v.Seq, o.onEvicted)
}

func (o *txOp) evicted(err error) {
	e := o.e
	if err != nil && errors.Is(err, device.ErrLost) {
		// The SSD died under the eviction: recover on a process (WAL replay
		// blocks), then route the victim through the new manager — for a
		// dirty page this usually becomes a plain disk write, never a lost
		// update (the log was forced above). Fault-only path; the closures
		// here never allocate in golden runs.
		e.env.Go("ssd-recovery", func(p *sim.Proc) {
			if rerr := e.RecoverSSDLoss(p); rerr != nil {
				o.evictSettled()
				e.pool.Release(o.v)
				o.v = nil
				o.claimed(nil, rerr)
				return
			}
			o.claimFinish(e.mgr.OnEvict(p, &o.v.Pg, o.dirty, !o.v.Seq))
		})
		return
	}
	o.claimFinish(err)
}

func (o *txOp) claimFinish(err error) {
	e := o.e
	o.evictSettled()
	v := o.v
	o.v = nil
	if err != nil {
		// The victim is already out of the table; without this it would
		// leak — neither resident nor free — shrinking the pool.
		e.pool.Release(v)
		o.claimed(nil, err)
		return
	}
	v.Dirty = false
	v.Seq = false
	v.RecLSN = 0
	o.claimed(v, nil)
}

func (o *txOp) claimed(f *bufpool.Frame, err error) {
	if o.kind == opClaim {
		gk := o.gk
		o.recycle()
		gk(f, err)
		return
	}
	if err != nil {
		o.finishFetch(nil, err)
		return
	}
	o.f = f
	f.Pg.ID = o.pid
	o.e.mgr.ReadTask(o.t, o.pid, &f.Pg, o.onSSDRead)
}

func (o *txOp) ssdRead(hit bool, err error) {
	e := o.e
	if err != nil {
		e.pool.Release(o.f)
		o.f = nil
		if errors.Is(err, device.ErrLost) {
			// The SSD died. Recovery replays the WAL with blocking I/O, so
			// bridge to a process, then re-enter the task path: recovery may
			// have brought pid in already. Fault-only path.
			e.env.Go("ssd-recovery", func(p *sim.Proc) {
				if rerr := e.RecoverSSDLoss(p); rerr != nil {
					o.finishFetch(nil, rerr)
					return
				}
				if g := e.pool.Lookup(o.pid, e.env.Now()); g != nil {
					o.finishFetch(g, nil)
					return
				}
				e.stats.PoolMisses-- // the retry counts the same miss again
				o.fetch()
			})
			return
		}
		var dce *ssd.DirtyCorruptError
		if errors.As(err, &dce) {
			// The page's only up-to-date copy failed verification; its
			// frame is condemned. Rebuild it from the WAL on a process
			// (blocking I/O), then serve from the pool. Fault-only path.
			e.env.Go("ssd-corrupt-repair", func(p *sim.Proc) {
				if rerr := e.repairDirtySSD(p, dce.PID); rerr != nil {
					o.finishFetch(nil, rerr)
					return
				}
				if g := e.pool.Lookup(o.pid, e.env.Now()); g != nil {
					o.finishFetch(g, nil)
					return
				}
				e.stats.PoolMisses-- // the retry counts the same miss again
				o.fetch()
			})
			return
		}
		o.finishFetch(nil, err)
		return
	}
	if hit {
		o.ssdHit = true
		f := o.f
		o.f = nil
		f.Seq = false // SSD-cached pages were random by admission
		got, _ := e.pool.Insert(f, e.env.Now())
		o.finishFetch(got, nil)
		return
	}
	// Miss: read from the database disk.
	n := e.readSpan(o.pid, o.viaReadAhead)
	o.bufs = e.getVec(n)
	e.dbReadTask(o.t, device.PageNum(o.pid), o.bufs, o.onDbRead)
}

func (o *txOp) dbRead(err error) {
	e := o.e
	if err == nil {
		err = e.installRead(o.pid, o.bufs, o.f)
	}
	e.putVec(o.bufs) // installRead copies, so nothing aliases them after
	o.bufs = nil
	if err != nil {
		var ce *page.ChecksumError
		if errors.As(err, &ce) {
			// Corrupt disk image: the repair ladder reads the SSD and disk
			// with blocking I/O, so bridge to a process. Fault-only path.
			cause := err
			e.env.Go("disk-repair", func(p *sim.Proc) {
				if rerr := e.repairDiskPage(p, o.pid, o.f, cause); rerr != nil {
					e.pool.Release(o.f)
					o.f = nil
					o.finishFetch(nil, rerr)
					return
				}
				o.installed()
			})
			return
		}
		e.pool.Release(o.f)
		o.f = nil
		o.finishFetch(nil, err)
		return
	}
	o.installed()
}

// installed finishes a disk-served fetch once frame o.f holds good bytes.
func (o *txOp) installed() {
	e := o.e
	f := o.f
	o.f = nil
	f.Seq = o.seqLabel
	e.noteClassification(o.truthScan, o.seqLabel)
	e.classifier.noteDiskRead(o.pid)
	got, inserted := e.pool.Insert(f, e.env.Now())
	if inserted && e.cfg.Design == ssd.TAC {
		// Gated on the design so the race-check closure (an allocation) is
		// only built when TAC will actually consider the admission.
		e.mgr.TACOnDiskRead(&got.Pg, !o.seqLabel, e.stillCleanFn(o.pid, got))
	}
	o.finishFetch(got, nil)
}

// finishFetch attributes a point access's miss latency (SSD hit vs disk
// read) and hands the frame to the access completion.
func (o *txOp) finishFetch(f *bufpool.Frame, err error) {
	e := o.e
	if err == nil && o.kind != opFetch {
		if o.ssdHit {
			e.lat.SSDHit.Observe(e.env.Now() - o.t0)
		} else {
			e.lat.DiskRead.Observe(e.env.Now() - o.t0)
		}
	}
	o.finish(f, err)
}

// finish completes the access: Update applies the mutation and logs it;
// every other kind hands the frame to the caller.
func (o *txOp) finish(f *bufpool.Frame, err error) {
	e := o.e
	if o.kind != opUpdate {
		gk := o.gk
		o.recycle()
		gk(f, err)
		return
	}
	if err != nil {
		uk := o.uk
		o.recycle()
		uk(err)
		return
	}
	if !f.Dirty {
		f.Dirty = true
		f.RecLSN = e.log.NextLSN()
		// A clean page in memory being modified invalidates its SSD copy
		// (§2.2).
		e.mgr.Invalidate(o.pid)
	}
	// Resident frames may be copied by latched readers when the pool is in
	// striped mode; MutateFrame orders the write against them (a direct call
	// in single-latch mode).
	e.pool.MutateFrame(f, o.mutate)
	// wal.Append copies the payload into log-owned storage, so the frame's
	// buffer can be handed over directly.
	lsn := e.log.Append(wal.Record{
		Type:    wal.TypeUpdate,
		Page:    o.pid,
		TxID:    o.tx,
		Payload: f.Pg.Payload,
	})
	f.Pg.LSN = lsn
	e.stats.Updates++
	uk := o.uk
	o.recycle()
	uk(nil)
}
