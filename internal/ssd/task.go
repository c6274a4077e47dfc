package ssd

import (
	"errors"

	"turbobp/internal/device"
	"turbobp/internal/page"
	"turbobp/internal/sim"
)

// This file holds the bodies of the manager's device-touching operations —
// read, frame write, disk write-back, admission, per-design eviction routing
// and TAC's asynchronous admission — each written once, in task form, with
// device waits expressed as continuations. Blocking processes (checkpointer,
// lazy cleaner, scans, recovery) reach them through the few-line
// sim.Proc.Await entries in ssd.go and designs.go. The synchronous tails
// (readOutcome, finishAdmit, allocFrame, the policy predicates) live in
// ssd.go/tac.go.
//
// Continuation state lives in per-operation structs taken from free lists
// on the Manager, with method continuations bound once per struct, so the
// steady-state path allocates no closures.

// readOp carries one ReadTask through the device read and its bounded,
// policy-driven retries.
type readOp struct {
	m        *Manager
	t        *sim.Task
	pid      page.ID
	idx      int
	attempt  int
	wantLSN  uint64
	restored bool
	buf      []byte
	vec      [][]byte
	pg       *page.Page
	k        func(bool, error)

	onRead  func(error) // bound to (*readOp).read once
	onRetry func()      // bound to (*readOp).retry once
}

func (m *Manager) getReadOp() *readOp {
	if n := len(m.readFree); n > 0 {
		o := m.readFree[n-1]
		m.readFree[n-1] = nil
		m.readFree = m.readFree[:n-1]
		return o
	}
	o := &readOp{m: m}
	o.onRead = o.read
	o.onRetry = o.retry
	return o
}

func (o *readOp) retry() {
	m := o.m
	o.vec = append(m.getVec(1), o.buf)
	m.dev.ReadTask(o.t, device.PageNum(o.idx), o.vec, o.onRead)
}

func (o *readOp) read(err error) {
	m := o.m
	m.putVec(o.vec)
	o.vec = nil
	rec := &m.frames[o.idx]
	if err != nil {
		m.stats.ReadErrors++
		m.noteDeviceErr(err)
		if retry.Retryable(err, o.attempt) {
			// Bounded retries, the standard storage response — and necessary
			// for dirty LC frames, whose copy is the only up-to-date one. The
			// frame's in-flight count stays held across the backoff so it
			// cannot be reclaimed mid-retry.
			m.stats.ReadRetries++
			d := retry.Delay(o.attempt)
			o.attempt++
			if d > 0 {
				o.t.Sleep(d, o.onRetry)
				return
			}
			o.retry()
			return
		}
	}
	rec.io--
	pid, idx, wantLSN, restored, buf, pg, k := o.pid, o.idx, o.wantLSN, o.restored, o.buf, o.pg, o.k
	o.t, o.buf, o.pg, o.k = nil, nil, nil, nil
	m.readFree = append(m.readFree, o)
	k(m.readOutcome(pid, idx, wantLSN, restored, buf, pg, err))
}

// ReadTask attempts to serve pid from the SSD into pg (whose Payload must be
// a PayloadSize buffer) and continues with whether it was an SSD hit. When
// the cached copy is dirty (newer than disk) the read bypasses throttle
// control, as correctness requires (§3.3.2).
func (m *Manager) ReadTask(t *sim.Task, pid page.ID, pg *page.Page, k func(bool, error)) {
	if !m.Enabled() {
		k(false, nil)
		return
	}
	if m.lost {
		k(false, device.ErrLost)
		return
	}
	s := m.shardOf(pid)
	m.recordAccess(s, pid)
	idx, ok := m.lookup(pid)
	if !ok || !m.frames[idx].valid {
		m.stats.Misses++
		k(false, nil)
		return
	}
	rec := &m.frames[idx]
	if m.quarantined && !rec.dirty {
		// Pass-through mode: the clean copy is no longer trusted capacity.
		// Drop it and serve from disk; dirty frames must still be read
		// (their SSD copy is the only up-to-date one) until drained.
		m.dropFrame(idx)
		m.stats.Misses++
		k(false, nil)
		return
	}
	if !rec.dirty && m.throttled() {
		m.stats.ThrottleReads++
		m.stats.Misses++
		k(false, nil)
		return
	}
	rec.io++
	o := m.getReadOp()
	o.t, o.pid, o.idx, o.pg, o.k, o.attempt = t, pid, idx, pg, k, 1
	o.wantLSN, o.restored = rec.lsn, rec.restored
	o.buf = m.getBuf()
	o.vec = append(m.getVec(1), o.buf)
	m.dev.ReadTask(t, device.PageNum(idx), o.vec, o.onRead)
}

// wfOp carries one frame write through the SSD device write and its bounded
// retries; the in-flight count is held across a backoff so the frame cannot
// be reclaimed mid-retry.
type wfOp struct {
	m       *Manager
	t       *sim.Task
	idx     int
	attempt int
	buf     []byte
	vec     [][]byte
	ka      func(bool, error) // admit completion: ka(finishAdmit(idx, err))
	kae     func(error)       // admit completion dropping the bool (TAC paths)

	onWritten func(error) // bound to (*wfOp).written once
	onRetry   func()      // bound to (*wfOp).retry once
}

func (m *Manager) getWfOp() *wfOp {
	if n := len(m.wfFree); n > 0 {
		o := m.wfFree[n-1]
		m.wfFree[n-1] = nil
		m.wfFree = m.wfFree[:n-1]
		return o
	}
	o := &wfOp{m: m}
	o.onWritten = o.written
	o.onRetry = o.retry
	return o
}

func (o *wfOp) retry() {
	m := o.m
	o.vec = append(m.getVec(1), o.buf)
	m.dev.WriteTask(o.t, device.PageNum(o.idx), o.vec, o.onWritten)
}

func (o *wfOp) written(err error) {
	m := o.m
	m.putVec(o.vec)
	o.vec = nil
	if err != nil {
		m.stats.WriteErrors++
		m.noteDeviceErr(err)
		if retry.Retryable(err, o.attempt) {
			m.stats.WriteRetries++
			d := retry.Delay(o.attempt)
			o.attempt++
			if d > 0 {
				o.t.Sleep(d, o.onRetry)
				return
			}
			o.retry()
			return
		}
	}
	m.putBuf(o.buf)
	m.frames[o.idx].io--
	m.frameIdle(o.idx)
	idx, ka, kae := o.idx, o.ka, o.kae
	o.t, o.buf, o.ka, o.kae = nil, nil, nil, nil
	m.wfFree = append(m.wfFree, o)
	m.admitDone(idx, err, ka, kae)
}

// admitDone delivers a frame write's outcome, through finishAdmit, to
// whichever of the two completion forms the caller supplied.
func (m *Manager) admitDone(idx int, err error, ka func(bool, error), kae func(error)) {
	ok, err := m.finishAdmit(idx, err)
	if ka != nil {
		ka(ok, err)
		return
	}
	kae(err)
}

// frameWrite encodes pg and writes it to frame idx on behalf of an
// admission, maintaining the in-flight count and deferred reclamation;
// exactly one of ka, kae is non-nil. The encode-error path takes the same
// completion as the device-write path.
func (m *Manager) frameWrite(t *sim.Task, idx int, pg *page.Page, ka func(bool, error), kae func(error)) {
	rec := &m.frames[idx]
	rec.io++
	buf := m.getBuf()
	if err := page.Encode(pg, buf); err != nil {
		m.putBuf(buf)
		rec.io--
		m.admitDone(idx, err, ka, kae)
		return
	}
	o := m.getWfOp()
	o.t, o.idx, o.buf, o.ka, o.kae, o.attempt = t, idx, buf, ka, kae, 1
	o.vec = append(m.getVec(1), buf)
	m.dev.WriteTask(t, device.PageNum(idx), o.vec, o.onWritten)
}

// wdOp carries one writeDiskTask through the database-disk write.
type wdOp struct {
	m   *Manager
	buf []byte
	vec [][]byte
	k   func(error)

	onWritten func(error) // bound to (*wdOp).written once
}

func (m *Manager) getWdOp() *wdOp {
	if n := len(m.wdFree); n > 0 {
		o := m.wdFree[n-1]
		m.wdFree[n-1] = nil
		m.wdFree = m.wdFree[:n-1]
		return o
	}
	o := &wdOp{m: m}
	o.onWritten = o.written
	return o
}

func (o *wdOp) written(err error) {
	m := o.m
	m.putVec(o.vec)
	m.putBuf(o.buf)
	k := o.k
	o.buf, o.vec, o.k = nil, nil, nil
	m.wdFree = append(m.wdFree, o)
	k(err)
}

// writeDiskTask pushes pg's encoded image to the database disk subsystem.
func (m *Manager) writeDiskTask(t *sim.Task, pg *page.Page, k func(error)) {
	buf := m.getBuf()
	if err := page.Encode(pg, buf); err != nil {
		m.putBuf(buf)
		k(err)
		return
	}
	o := m.getWdOp()
	o.buf, o.k = buf, k
	o.vec = append(m.getVec(1), buf)
	m.disk.WriteEncodedTask(t, pg.ID, o.vec, o.onWritten)
}

// admitTask caches pg in the SSD (already qualified and not throttled),
// continuing with false if no frame could be claimed.
func (m *Manager) admitTask(t *sim.Task, pg *page.Page, dirty bool, k func(bool, error)) {
	if m.lost {
		k(false, device.ErrLost)
		return
	}
	if m.quarantined {
		k(false, nil) // pass-through: no new admissions
		return
	}
	s := m.shardOf(pg.ID)
	if idx, ok := m.lookup(pg.ID); ok {
		rec := &m.frames[idx]
		if rec.valid && !dirty {
			k(true, nil) // identical clean copy already cached
			return
		}
		// Overwrite in place (e.g. LC re-admitting a page whose frame is
		// still around). Publish the new state before the device write.
		if dirty && !rec.dirty {
			m.dirtyCount++
			s.clean.Remove(m.cleanKey(idx))
		}
		rec.valid = true
		rec.dirty = rec.dirty || dirty
		rec.lsn = pg.LSN
		m.touch(idx)
		m.stats.Admissions++
		if dirty {
			m.stats.DirtyAdmits++
		}
		m.frameWrite(t, idx, pg, k, nil)
		return
	}
	idx := m.allocFrame(pg.ID, dirty)
	if idx < 0 {
		k(false, nil)
		return
	}
	m.frames[idx].lsn = pg.LSN
	m.stats.Admissions++
	if dirty {
		m.stats.DirtyAdmits++
	}
	m.frameWrite(t, idx, pg, k, nil)
}

// evictOp carries one OnEvictTask through its per-design routing: the disk
// write-back, the SSD admission and (for DW) the concurrent dual-write join.
type evictOp struct {
	m  *Manager
	t  *sim.Task
	pg *page.Page
	k  func(error)

	// DW dual-write state.
	snapBuf []byte
	snap    page.Page
	done    *sim.Signal
	ssdErr  error
	diskErr error

	spawnDW      func(*sim.Task)   // bound: the dw-ssd-write child body
	onDWAdmit    func(bool, error) // bound: SSD leg completion
	onDWDisk     func(error)       // bound: disk leg completion
	onDWJoin     func()            // bound: both legs done
	onCleanAdmit func(bool, error) // bound: clean-eviction admit completion
	onLCAdmit    func(bool, error) // bound: LC dirty-admit completion
	onTACDisk    func(error)       // bound: TAC disk write-back completion
	finishF      func(error)       // bound to (*evictOp).finish once
}

func (m *Manager) getEvictOp() *evictOp {
	if n := len(m.evictFree); n > 0 {
		o := m.evictFree[n-1]
		m.evictFree[n-1] = nil
		m.evictFree = m.evictFree[:n-1]
		return o
	}
	o := &evictOp{m: m, done: sim.NewSignal(m.env)}
	o.spawnDW = func(child *sim.Task) { o.m.admitTask(child, &o.snap, false, o.onDWAdmit) }
	o.onDWAdmit = func(_ bool, err error) {
		o.ssdErr = err
		o.done.Broadcast()
	}
	o.onDWDisk = func(err error) {
		o.diskErr = err
		o.done.WaitFiredFunc(o.onDWJoin)
	}
	o.onDWJoin = o.dwJoin
	o.onCleanAdmit = func(_ bool, err error) { o.finish(err) }
	o.onLCAdmit = o.lcAdmit
	o.onTACDisk = o.tacDisk
	o.finishF = o.finish
	return o
}

// finish recycles the op before continuing, so k may immediately evict again.
func (o *evictOp) finish(err error) {
	m, k := o.m, o.k
	o.t, o.pg, o.k = nil, nil, nil
	m.evictFree = append(m.evictFree, o)
	k(err)
}

func (o *evictOp) dwJoin() {
	m := o.m
	m.putBuf(o.snapBuf)
	o.snapBuf = nil
	o.snap = page.Page{}
	err := o.diskErr
	if err == nil {
		err = o.ssdErr
	}
	o.finish(err)
}

func (o *evictOp) lcAdmit(ok bool, err error) {
	if err != nil {
		o.finish(err)
		return
	}
	if !ok {
		o.m.writeDiskTask(o.t, o.pg, o.finishF)
		return
	}
	o.finish(nil)
}

func (o *evictOp) tacDisk(err error) {
	if err != nil {
		o.finish(err)
		return
	}
	o.m.tacRevalidateTask(o.t, o.pg, o.finishF)
}

// OnEvictTask routes a page evicted from the memory buffer pool according to
// the active design (§2.3). random records how the page originally came
// into memory (the admission policy's random/sequential classification).
// The caller must already have forced the log up to pg.LSN (WAL protocol).
func (m *Manager) OnEvictTask(t *sim.Task, pg *page.Page, dirty, random bool, k func(error)) {
	o := m.getEvictOp()
	o.t, o.pg, o.k = t, pg, k

	if !dirty {
		// A clean page leaving the memory pool: CW, DW and LC consider
		// caching it now (§2.5: "clean pages are written to the SSD only
		// after they have been evicted"); TAC already wrote it at read time
		// and does nothing; noSSD discards it.
		switch m.cfg.Design {
		case CW, DW, LC:
			if !m.admits(pg.ID, random) {
				o.finish(nil)
				return
			}
			if m.throttled() {
				m.stats.ThrottleWrites++
				o.finish(nil)
				return
			}
			m.admitTask(t, pg, false, o.onCleanAdmit)
		default:
			o.finish(nil)
		}
		return
	}
	switch m.cfg.Design {
	case NoSSD, CW:
		// Clean-write never sends dirty pages to the SSD (§2.3.1).
		m.writeDiskTask(t, pg, o.finishF)
		return

	case DW:
		// Dual-write sends the page to the SSD and the disk
		// "simultaneously" (§2.3.2): both writes are issued concurrently
		// and the eviction completes when both have. The SSD copy equals
		// the disk copy, so it is cached clean.
		if !m.admits(pg.ID, random) {
			m.writeDiskTask(t, pg, o.finishF)
			return
		}
		if m.throttled() {
			m.stats.ThrottleWrites++
			m.writeDiskTask(t, pg, o.finishF)
			return
		}
		// Snapshot the page for the concurrent SSD write, in a pooled buffer
		// that dwJoin returns once both legs are done.
		o.snapBuf = m.getBuf()
		o.snap = page.Page{ID: pg.ID, LSN: pg.LSN, Payload: append(o.snapBuf[:0], pg.Payload...)}
		o.ssdErr, o.diskErr = nil, nil
		o.done.Reset()
		m.env.Spawn("dw-ssd-write", o.spawnDW)
		m.writeDiskTask(t, pg, o.onDWDisk)
		return

	case LC:
		// Lazy-cleaning writes the dirty page only to the SSD (§2.3.3);
		// the cleaner thread copies it to disk later. During a sharp
		// checkpoint LC stops caching new dirty pages (§3.2), and when the
		// SSD cannot take the page (throttled, unqualified, or no clean
		// frame reclaimable) the eviction falls back to a disk write.
		if m.checkpointing || !m.admits(pg.ID, random) {
			m.writeDiskTask(t, pg, o.finishF)
			return
		}
		if m.throttled() {
			m.stats.ThrottleWrites++
			m.writeDiskTask(t, pg, o.finishF)
			return
		}
		m.admitTask(t, pg, true, o.onLCAdmit)
		return

	case TAC:
		// TAC is write-through: the dirty page goes to disk, and if an
		// invalidated version sits in the SSD it is refreshed too (§2.5).
		m.writeDiskTask(t, pg, o.onTACDisk)
		return
	}
	m.writeDiskTask(t, pg, o.finishF)
}

// tacRevalidateTask refreshes a logically-invalidated SSD copy at dirty
// eviction time: TAC writes the page to the SSD alongside the disk write
// only when an invalid version already occupies a frame (§2.5).
func (m *Manager) tacRevalidateTask(t *sim.Task, pg *page.Page, k func(error)) {
	if !m.Enabled() {
		k(nil)
		return
	}
	if m.lost {
		k(device.ErrLost)
		return
	}
	if m.quarantined {
		k(nil)
		return
	}
	idx, ok := m.lookup(pg.ID)
	if !ok {
		k(nil)
		return
	}
	rec := &m.frames[idx]
	if rec.valid {
		k(nil)
		return
	}
	if m.throttled() {
		m.stats.ThrottleWrites++
		k(nil)
		return
	}
	rec.valid = true
	rec.lsn = pg.LSN
	m.stats.Revalidations++
	m.frameWrite(t, idx, pg, nil, k)
}

// tacAdmitOp carries one asynchronous TAC admission (TACOnDiskRead) through
// its delay, race check and SSD write.
type tacAdmitOp struct {
	m          *Manager
	child      *sim.Task
	snapBuf    []byte
	snap       page.Page
	stillClean func() bool

	spawnF  func(*sim.Task) // bound: child body (sleeps AsyncAdmitDelay)
	onAwake func()          // bound: delay elapsed
	onAdmit func(error)     // bound: admission finished
}

func (m *Manager) getTacAdmitOp() *tacAdmitOp {
	if n := len(m.taFree); n > 0 {
		o := m.taFree[n-1]
		m.taFree[n-1] = nil
		m.taFree = m.taFree[:n-1]
		return o
	}
	o := &tacAdmitOp{m: m}
	o.spawnF = func(child *sim.Task) {
		o.child = child
		child.Sleep(asyncAdmitDelay, o.onAwake)
	}
	o.onAwake = o.awake
	o.onAdmit = o.admitted
	return o
}

func (o *tacAdmitOp) recycle() {
	m := o.m
	if o.snapBuf != nil {
		m.putBuf(o.snapBuf)
	}
	o.child, o.snapBuf, o.stillClean = nil, nil, nil
	o.snap = page.Page{}
	m.taFree = append(m.taFree, o)
}

func (o *tacAdmitOp) awake() {
	m := o.m
	if !o.stillClean() {
		m.stats.TACAborts++
		o.recycle()
		return
	}
	if m.throttled() {
		m.stats.ThrottleWrites++
		o.recycle()
		return
	}
	m.tacAdmitTask(o.child, &o.snap, o.onAdmit)
}

func (o *tacAdmitOp) admitted(err error) {
	if err != nil && !errors.Is(err, device.ErrLost) {
		panic("ssd: tac admit: " + err.Error())
	}
	// An ErrLost admission is swallowed: the write was optional traffic; the
	// engine notices the loss on its next synchronous SSD operation.
	o.recycle()
}

// TACOnDiskRead schedules TAC's asynchronous admission of a page that was
// just read from disk into the memory pool, as a child task. stillClean is
// consulted right before the SSD write begins; if forward processing dirtied
// the page in the meantime the write is abandoned (the latch race of §4.2),
// which is precisely why TAC under-caches on update-intensive workloads.
func (m *Manager) TACOnDiskRead(pg *page.Page, _ bool, stillClean func() bool) {
	if m.cfg.Design != TAC || !m.Enabled() {
		return
	}
	o := m.getTacAdmitOp()
	o.snapBuf = m.getBuf()
	o.snap = page.Page{ID: pg.ID, LSN: pg.LSN, Payload: append(o.snapBuf[:0], pg.Payload...)}
	o.stillClean = stillClean
	m.env.Spawn("tac-admit", o.spawnF)
}

// tacAdmitTask writes snap into the SSD if TAC's policy allows: always while
// below the filling threshold, otherwise only when its extent is hotter
// than the coldest cached page (which is then replaced).
func (m *Manager) tacAdmitTask(t *sim.Task, snap *page.Page, k func(error)) {
	if m.lost {
		k(device.ErrLost)
		return
	}
	if m.quarantined {
		k(nil) // pass-through: no new admissions
		return
	}
	s := m.shardOf(snap.ID)
	if idx, ok := m.lookup(snap.ID); ok {
		rec := &m.frames[idx]
		if rec.valid {
			k(nil) // already cached
			return
		}
		rec.valid = true
		rec.lsn = snap.LSN
		m.stats.Admissions++
		m.frameWrite(t, idx, snap, nil, k)
		return
	}
	if !m.freqAdmit(s, snap.ID) {
		k(nil) // frequency gate (TinyLFU) refused the extent-path admit
		return
	}
	idx := m.tacAllocFrame(snap.ID)
	if idx < 0 {
		k(nil)
		return
	}
	m.frames[idx].lsn = snap.LSN
	m.stats.Admissions++
	m.frameWrite(t, idx, snap, nil, k)
}
