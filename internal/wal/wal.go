// Package wal implements the write-ahead log used by the storage engine.
//
// The engine is redo-only: every page update appends an after-image record,
// commits force the log, and recovery replays records newer than the last
// sharp checkpoint. The paper's DW and LC designs both obey this protocol —
// the log records for a page are forcibly flushed before the page may be
// written to the SSD or the disk (§2.4).
//
// The log separates what has been appended (pending) from what has survived
// a flush (durable). A crash discards pending records; recovery sees only
// durable ones. Flushes charge virtual time on the dedicated log device as
// sequential page writes, batching all pending records (group commit).
//
// By default the log holds every durable record in memory, payload
// included, until a checkpoint truncates it: recovery (Crash + Recover),
// SSD-loss redo, page repair and the file backend's reopen all read those
// records. Only an owner that guarantees none of those will ever run may
// drop them, with DiscardDurable. The harness's fault-free simulation runs
// (harness.RunOLTP) are such owners: they run, stop and read statistics,
// and with checkpointing effectively off (TPC-C) the retained history would
// otherwise grow with every update of a ten-hour run.
package wal

import (
	"math"
	"time"

	"turbobp/internal/device"
	"turbobp/internal/page"
	"turbobp/internal/sim"
)

// Type discriminates log records.
type Type uint8

// Record types.
const (
	TypeUpdate     Type = iota + 1 // page after-image
	TypeCommit                     // transaction commit
	TypeCheckpoint                 // end of a sharp checkpoint
	// TypePrepare marks a local transaction as a prepared participant of a
	// cross-partition two-phase commit. StartLSN (reused; prepares carry no
	// checkpoint horizon) holds the global transaction id the coordinator
	// log decides on; recovery resolves prepared-but-undecided transactions
	// via presumed abort. See docs/FAILURES.md ("Service failure model").
	TypePrepare
	// TypeUndo carries a page's before-image, logged ahead of the matching
	// update record when a buffered transaction applies at commit time.
	// Recovery applies undo records of aborted (unresolved) transactions so
	// an eviction that forced uncommitted records — and wrote uncommitted
	// pages — cannot leak an aborted transaction's data into the database.
	TypeUndo
)

// Record is one log entry. Update records carry the page's new payload;
// checkpoint records carry, in StartLSN, the LSN at which the checkpoint's
// flush began (recovery redoes everything after it).
type Record struct {
	LSN      uint64
	Type     Type
	Page     page.ID
	TxID     uint64
	StartLSN uint64
	Payload  []byte
	// At is the virtual time of the Append, stamped by the log; within one
	// log, At order coincides with LSN order.
	At time.Duration
}

// overhead approximates the on-disk framing bytes per record.
const overhead = 32

// slabChunkBytes is the allocation unit of the payload slab. Append copies
// record payloads into chunks of this size, so steady-state appends cost one
// allocation per chunk's worth of payload rather than one per record.
const slabChunkBytes = 1 << 18

// byteSlab is a bump allocator for payload copies. Stored payloads live as
// long as the Records that reference them; chunks are reclaimed by the GC
// once every referencing record is gone (e.g. after TruncateThrough).
type byteSlab struct {
	cur []byte
}

// durableBlock is the number of records per block of the durable deque.
const durableBlock = 8192

// recDeque stores the durable records as a sequence of fixed-size blocks.
// Unlike a flat slice — whose doubling growth re-copies and re-zeroes the
// entire accumulated history, a measurable cost once a long run holds
// hundreds of thousands of durable records — appending here never moves an
// existing record, and truncation recycles whole emptied blocks.
type recDeque struct {
	blocks [][]Record
	count  int
	spare  []Record // one recycled emptied block
}

// push appends one record (records arrive in LSN order).
func (d *recDeque) push(r Record) {
	n := len(d.blocks)
	if n == 0 || len(d.blocks[n-1]) == durableBlock {
		b := d.spare
		d.spare = nil
		if b == nil {
			b = make([]Record, 0, durableBlock)
		}
		d.blocks = append(d.blocks, b)
		n++
	}
	d.blocks[n-1] = append(d.blocks[n-1], r)
	d.count++
}

// all materializes the records, oldest first, into a fresh slice.
func (d *recDeque) all() []Record {
	out := make([]Record, 0, d.count)
	for _, b := range d.blocks {
		out = append(out, b...)
	}
	return out
}

// reset replaces the contents with recs.
func (d *recDeque) reset(recs []Record) {
	*d = recDeque{}
	for _, r := range recs {
		d.push(r)
	}
}

// truncateThrough drops every record with LSN <= lsn, relying on LSN order.
// Fully-covered leading blocks are zeroed and recycled; a partially-covered
// boundary block is shifted in place.
func (d *recDeque) truncateThrough(lsn uint64) {
	for len(d.blocks) > 0 {
		b := d.blocks[0]
		if len(b) == 0 || b[len(b)-1].LSN > lsn {
			break
		}
		d.count -= len(b)
		for i := range b {
			b[i] = Record{} // drop payload refs
		}
		d.spare = b[:0]
		d.blocks = d.blocks[1:]
	}
	if len(d.blocks) == 0 {
		d.blocks = nil
		return
	}
	b := d.blocks[0]
	i := 0
	for i < len(b) && b[i].LSN <= lsn {
		i++
	}
	if i > 0 {
		n := copy(b, b[i:])
		tail := b[n:]
		for j := range tail {
			tail[j] = Record{}
		}
		d.blocks[0] = b[:n]
		d.count -= i
	}
}

// stash copies b into the slab and returns the copy (capacity-clipped so
// appends to it cannot clobber a neighbour).
func (s *byteSlab) stash(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if len(b) > slabChunkBytes/8 {
		// Outsized payloads get a dedicated copy; sharing a chunk with them
		// would waste the remainder.
		return append([]byte(nil), b...)
	}
	if cap(s.cur)-len(s.cur) < len(b) {
		s.cur = make([]byte, 0, slabChunkBytes)
	}
	off := len(s.cur)
	s.cur = append(s.cur, b...)
	return s.cur[off:len(s.cur):len(s.cur)]
}

// Log is the log manager. Create with New; methods must be called from
// simulation processes (or with a nil proc when the device allows it).
type Log struct {
	env      *sim.Env
	dev      device.Device
	pageSize int
	capacity device.PageNum

	nextLSN    uint64
	flushedLSN uint64
	pending    []Record
	pendingB   int
	durable    recDeque
	slab       byteSlab
	persist    bool // encode flush batches onto the device (file backend)
	discard    bool // DiscardDurable: keep no payloads and no durable records

	writePos device.PageNum
	flushing bool
	fsignal  *sim.Signal

	// Reused across flushes; safe because the flushing flag serializes the
	// device-write section of FlushTask.
	spare     []Record // recycled pending-batch backing array
	flushBuf  []byte
	flushBufs [][]byte

	// Flush state: fl is the single in-flight flush (the flushing flag
	// serializes flushes, so one reusable struct suffices) and wFree pools
	// the waiters, so steady-state flushes allocate no continuation closures.
	fl    *flight
	wFree []*fwait

	appends      int64
	flushes      int64
	flushedPages int64
}

// New returns a log writing pageSize-byte pages to dev, which has capacity
// pages (the write position wraps, as a recycled physical log would).
func New(env *sim.Env, dev device.Device, pageSize int, capacity device.PageNum) *Log {
	return &Log{
		env:      env,
		dev:      dev,
		pageSize: pageSize,
		capacity: capacity,
		nextLSN:  1,
		fsignal:  sim.NewSignal(env),
	}
}

// Append adds a record, assigns its LSN and returns it. The record is not
// durable until a Flush covering its LSN completes. Append copies r.Payload
// into log-owned storage, so the caller may reuse its buffer immediately.
func (l *Log) Append(r Record) uint64 {
	r.LSN = l.nextLSN
	l.nextLSN++
	r.At = l.env.Now()
	l.pendingB += overhead + len(r.Payload)
	if l.discard {
		r.Payload = nil
	} else {
		r.Payload = l.slab.stash(r.Payload)
	}
	if l.pending == nil && l.spare != nil {
		l.pending, l.spare = l.spare, nil
	}
	l.pending = append(l.pending, r)
	l.appends++
	return r.LSN
}

// NextLSN returns the LSN the next Append will receive.
func (l *Log) NextLSN() uint64 { return l.nextLSN }

// FlushedLSN returns the highest durable LSN.
func (l *Log) FlushedLSN() uint64 { return l.flushedLSN }

// SetPersist selects whether flushes encode the batch's records onto the
// log device (true: the file backend, whose log must survive a process
// kill) or write placeholder pages that only charge device time (false,
// the default: the simulated backend, whose determinism contract and
// goldens depend on the log staying a pure timing model). A persisted log
// is read back with LoadDurable after reopening the device. A discarding
// log (DiscardDurable) cannot persist: it panics.
func (l *Log) SetPersist(on bool) {
	if on && l.discard {
		panic("wal: SetPersist(true) on a log that called DiscardDurable")
	}
	l.persist = on
}

// DiscardDurable declares that nothing will ever read this log's records
// back — no Crash, Recover, repair, export or reopen — so it need not keep
// them; call it before the first Append. From then on, Append copies no
// payload and a landed flush keeps none of its records. LSNs, FlushedLSN,
// group-commit coalescing, the pages each flush writes and Stats are
// unchanged, since the batch footprint still counts every payload's
// length. Every reader of record bodies (Durable, PendingRecords,
// LatestUpdate, LastCheckpoint, WriteTo, ReadDurable, LoadDurable) and
// Crash panics on such a log, so a caller that broke the promise fails
// loudly instead of recovering from an empty log. It is the log-level
// counterpart of the log device's DiscardContent; a persisted log panics.
func (l *Log) DiscardDurable() {
	if l.persist {
		panic("wal: DiscardDurable on a persisted log (SetPersist)")
	}
	l.discard = true
}

// mustRetain panics when op reads record bodies of a discarding log.
func (l *Log) mustRetain(op string) {
	if l.discard {
		panic("wal: " + op + " on a log that called DiscardDurable: its records were never kept")
	}
}

// buildFlushBufs prepares the page buffers for one flush batch. In persist
// mode the batch is encoded (and the tail page zero-padded, so replay
// detects the batch end); otherwise the buffers carry placeholder content
// sized by the batch's estimated footprint.
func (l *Log) buildFlushBufs(batch []Record, batchBytes int) ([][]byte, device.PageNum) {
	var nPages device.PageNum
	if l.persist {
		enc := l.flushBuf[:0]
		for _, r := range batch {
			enc = EncodeRecord(enc, r)
		}
		nPages = device.PageNum((len(enc) + l.pageSize - 1) / l.pageSize)
		need := int(nPages) * l.pageSize
		for len(enc) < need {
			enc = append(enc, 0)
		}
		l.flushBuf = enc
	} else {
		nPages = device.PageNum((batchBytes + l.pageSize - 1) / l.pageSize)
		need := int(nPages) * l.pageSize
		if cap(l.flushBuf) < need {
			l.flushBuf = make([]byte, need)
		}
		l.flushBuf = l.flushBuf[:need]
	}
	bufs := l.flushBufs[:0]
	if cap(bufs) < int(nPages) {
		bufs = make([][]byte, 0, int(nPages))
	}
	for i := 0; i < int(nPages); i++ {
		bufs = append(bufs, l.flushBuf[i*l.pageSize:(i+1)*l.pageSize])
	}
	l.flushBufs = bufs[:0]
	return bufs, nPages
}

// advanceWritePos claims nPages of log-device space for a flush. The
// placeholder (simulated) log wraps like a recycled physical log; a
// persisted log must not — wrapping would overwrite records replay still
// reads linearly. Its callers keep clear of the end (Remaining, FlushPages;
// the engine refuses work with ErrLogFull first), so running off it is a
// bug, surfaced loudly instead of silently corrupting the log.
func (l *Log) advanceWritePos(nPages device.PageNum) device.PageNum {
	start := l.writePos
	if start+nPages > l.capacity {
		if l.persist {
			panic("wal: persisted log capacity exhausted (checkpoint/truncate cannot reclaim device space)")
		}
		start = 0 // wrap the circular log
	}
	l.writePos = start + nPages
	return start
}

// Remaining reports how many pages a persisted log can still write. Flushes
// only ever append and nothing reclaims device space — a checkpoint
// truncates the in-memory copy alone — so a log that runs out is full for
// good. A placeholder log wraps and never runs out.
func (l *Log) Remaining() device.PageNum {
	if !l.persist {
		return math.MaxInt64
	}
	return l.capacity - l.writePos
}

// FlushPages bounds the pages the log device spends on records more
// records carrying payloadBytes of payload between them, each flushed on
// its own in the worst case (every flush rounds up to a whole page).
func (l *Log) FlushPages(records, payloadBytes int) device.PageNum {
	return device.PageNum(records + (payloadBytes+records*frameHeader)/l.pageSize)
}

// Flush is FlushTask for a blocking process: it returns once every record
// with LSN <= upTo is durable.
func (l *Log) Flush(p *sim.Proc, upTo uint64) {
	_ = p.Await(func(t *sim.Task, done func(error)) { // FlushTask reports no error
		w := l.getWait()
		w.done = done
		l.FlushTask(t, upTo, w.wakeFn)
	})
}

// flight is the state of the one in-flight flush. The flushing flag
// serializes flushes, so a single reusable struct (with its completion bound
// once) carries every device write.
type flight struct {
	l      *Log
	t      *sim.Task
	upTo   uint64
	k      func()
	batch  []Record
	endLSN uint64
	nPages device.PageNum

	onWritten func(error) // bound to (*flight).written once
}

func (f *flight) written(err error) {
	if err != nil {
		// The simulated log device cannot fail in-range; surface loudly.
		panic("wal: log device write failed: " + err.Error())
	}
	l := f.l
	if !l.discard {
		for _, r := range f.batch {
			l.durable.push(r)
		}
	}
	for i := range f.batch {
		f.batch[i] = Record{} // drop payload refs before recycling
	}
	if l.spare == nil || cap(f.batch) > cap(l.spare) {
		l.spare = f.batch[:0]
	}
	if f.endLSN > l.flushedLSN {
		l.flushedLSN = f.endLSN
	}
	l.flushes++
	l.flushedPages += int64(f.nPages)
	l.flushing = false
	l.fsignal.Broadcast()
	// Copy out before re-entering FlushTask: the recursion may start a new
	// flush that reuses this struct.
	t, upTo, k := f.t, f.upTo, f.k
	f.t, f.k, f.batch = nil, nil, nil
	l.FlushTask(t, upTo, k) // re-check: upTo may lie beyond this batch
}

// fwait is one pooled waiter on a flush: a FlushTask call parked behind an
// in-flight flush, re-entered when the flush signal fires, or a blocking
// Flush call's process, woken when its FlushTask completes.
type fwait struct {
	l    *Log
	t    *sim.Task
	upTo uint64
	k    func()
	done func(error) // Flush: the parked process's Await completion

	fn     func() // bound to (*fwait).run once
	wakeFn func() // bound to (*fwait).wake once
}

func (l *Log) getWait() *fwait {
	if n := len(l.wFree); n > 0 {
		w := l.wFree[n-1]
		l.wFree[n-1] = nil
		l.wFree = l.wFree[:n-1]
		return w
	}
	w := &fwait{l: l}
	w.fn = w.run
	w.wakeFn = w.wake
	return w
}

func (w *fwait) run() {
	l, t, upTo, k := w.l, w.t, w.upTo, w.k
	w.t, w.k = nil, nil
	l.wFree = append(l.wFree, w)
	l.FlushTask(t, upTo, k)
}

func (w *fwait) wake() {
	done := w.done
	w.done = nil
	w.l.wFree = append(w.l.wFree, w)
	done(nil)
}

// FlushTask makes every record with LSN <= upTo durable, charging log-device
// time, then continues with k. Concurrent flushes coalesce: a caller whose
// records are covered by an in-flight flush waits for it instead of issuing
// another write, and re-checks when it lands.
func (l *Log) FlushTask(t *sim.Task, upTo uint64, k func()) {
	if l.flushedLSN >= upTo {
		k()
		return
	}
	if l.flushing {
		w := l.getWait()
		w.t, w.upTo, w.k = t, upTo, k
		l.fsignal.WaitFunc(w.fn)
		return
	}
	if len(l.pending) == 0 {
		k() // nothing buffered; upTo was never appended
		return
	}
	// Claim the device space first: advanceWritePos panics on an exhausted
	// persisted log, and must do so before the batch is detached or the
	// flushing flag set — a flight that never lands would park every later
	// flush (Close's checkpoint included) forever.
	batch := l.pending
	bufs, nPages := l.buildFlushBufs(batch, l.pendingB)
	start := l.advanceWritePos(nPages)
	l.pending = nil
	l.pendingB = 0
	endLSN := batch[len(batch)-1].LSN
	l.flushing = true
	if l.fl == nil {
		l.fl = &flight{l: l}
		l.fl.onWritten = l.fl.written
	}
	f := l.fl
	f.t, f.upTo, f.k, f.batch, f.endLSN, f.nPages = t, upTo, k, batch, endLSN, nPages
	l.dev.WriteTask(t, start, bufs, f.onWritten)
}

// Crash discards pending (non-durable) records, as a power failure would.
// A discarding log (DiscardDurable) panics: nothing could recover it.
func (l *Log) Crash() {
	l.mustRetain("Crash")
	l.pending = nil
	l.pendingB = 0
	l.flushing = false
}

// Durable returns the records that survived flushes, oldest first, as a
// fresh slice (the log stores them in blocks internally). Payloads are
// shared; callers must not modify them.
func (l *Log) Durable() []Record {
	l.mustRetain("Durable")
	return l.durable.all()
}

// PendingRecords returns a copy of the records appended but not yet durable
// — what a crash right now would lose. Fault tests use it to build the
// torn-tail log images they then recover from.
func (l *Log) PendingRecords() []Record {
	l.mustRetain("PendingRecords")
	return append([]Record(nil), l.pending...)
}

// LastCheckpoint returns the most recent durable checkpoint record, if any.
func (l *Log) LastCheckpoint() (Record, bool) {
	l.mustRetain("LastCheckpoint")
	for bi := len(l.durable.blocks) - 1; bi >= 0; bi-- {
		b := l.durable.blocks[bi]
		for i := len(b) - 1; i >= 0; i-- {
			if b[i].Type == TypeCheckpoint {
				return b[i], true
			}
		}
	}
	return Record{}, false
}

// TruncateThrough discards durable records with LSN <= lsn (called after a
// checkpoint makes them unnecessary for recovery), zeroing dropped slots so
// payload chunks can be reclaimed.
func (l *Log) TruncateThrough(lsn uint64) {
	l.durable.truncateThrough(lsn)
}

// LatestUpdate returns the newest durable update record for pid, scanning
// the log backward. Because update records carry full after-images, the
// returned record alone reconstructs the page — this is what page-granular
// corruption repair redoes. Invariant I2 (checkpoints never truncate
// records still needed by dirty SSD pages) guarantees the record is present
// while any SSD frame for pid is uniquely dirty.
func (l *Log) LatestUpdate(pid page.ID) (Record, bool) {
	l.mustRetain("LatestUpdate")
	for bi := len(l.durable.blocks) - 1; bi >= 0; bi-- {
		b := l.durable.blocks[bi]
		for i := len(b) - 1; i >= 0; i-- {
			if b[i].Type == TypeUpdate && b[i].Page == pid {
				return b[i], true
			}
		}
	}
	return Record{}, false
}

// Stats reports append/flush activity.
func (l *Log) Stats() (appends, flushes, flushedPages int64) {
	return l.appends, l.flushes, l.flushedPages
}

// PendingBytes reports the bytes buffered for the next flush.
func (l *Log) PendingBytes() int { return l.pendingB }
