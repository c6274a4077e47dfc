package engine

import (
	"errors"

	"turbobp/internal/device"
	"turbobp/internal/fault"
	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
	"turbobp/internal/wal"
)

// checkpointBatch caps the pages per checkpoint disk write.
const checkpointBatch = 32

// Checkpoint performs a sharp checkpoint (§3.2): every dirty page in the
// memory pool — and, under LC, every dirty page in the SSD — is flushed to
// the disks, then a checkpoint record is logged. Recovery replays only log
// records newer than the flush's starting LSN.
//
// Two crash points bracket the checkpoint record: mid-checkpoint crashes
// after the flushes but before the record is durable (recovery falls back
// to the previous checkpoint — correct, merely slower), post-checkpoint
// crashes right after the record is durable and the log truncated.
//
// On a persisted log (the file backend) a checkpoint that would not leave
// room for one more — the one Close writes — is refused with ErrLogFull.
func (e *Engine) Checkpoint(p *sim.Proc) error { return e.checkpoint(p, 2) }

// CloseCheckpoint is the last checkpoint before shutdown: it alone may use
// the log space every other log writer leaves for it.
func (e *Engine) CloseCheckpoint(p *sim.Proc) error { return e.checkpoint(p, 1) }

// ErrLogFull reports that a persisted log has too little space left for the
// operation. A persisted log slice never reclaims space (wal.Log.Remaining),
// so the condition is permanent: reads, Close and a reopen keep working,
// updates and checkpoints are refused.
var ErrLogFull = errors.New("engine: write-ahead log full")

// logRoom reports whether the log can take need more pages beyond what
// admitted transactions have reserved.
func (e *Engine) logRoom(need device.PageNum) bool {
	return e.log.Remaining()-e.logReserved >= need
}

// checkpointPages bounds the log pages n checkpoints take: one record each,
// which under WarmRestart carries the SSD buffer table.
func (e *Engine) checkpointPages(n int) device.PageNum {
	table := 0
	if e.cfg.WarmRestart {
		table = e.cfg.SSDFrames * ssd.TableEntrySize
	}
	return e.log.FlushPages(n, n*table)
}

// txLogPages bounds the log pages of a transaction that logs up to images
// page images: the images, its prepare and commit records, and the commit of
// the transaction that compensates it should it fail.
func (e *Engine) txLogPages(images int) device.PageNum {
	return e.log.FlushPages(images+3, images*e.cfg.PayloadSize)
}

// ReserveLog admits a transaction that will log up to images page images
// (before- and after-images alike): it fails with ErrLogFull unless the log
// can hold them and still take Close's checkpoint, and otherwise keeps the
// space from checkpoints that run meanwhile until ReleaseLog(images).
func (e *Engine) ReserveLog(images int) error {
	need := e.txLogPages(images)
	if !e.logRoom(need + e.checkpointPages(1)) {
		return ErrLogFull
	}
	e.logReserved += need
	return nil
}

// ReleaseLog returns the reservation ReserveLog(images) made.
func (e *Engine) ReleaseLog(images int) { e.logReserved -= e.txLogPages(images) }

// checkpoint is Checkpoint's body; it runs only while the log has room for
// room checkpoints.
func (e *Engine) checkpoint(p *sim.Proc, room int) error {
	if !e.logRoom(e.checkpointPages(room)) {
		return ErrLogFull
	}
	if e.cfg.FuzzyCheckpoints {
		return e.fuzzyCheckpoint(p)
	}
	e.stats.Checkpoints++
	startLSN := e.redoPoint(e.log.NextLSN() - 1)
	e.mgr.SetCheckpointing(true)
	// Resolve e.mgr at defer time: SSD-loss recovery replaces it mid-flush.
	defer func() { e.mgr.SetCheckpointing(false) }()

	// An SSD loss mid-flush replaces the manager and redoes its uniquely-
	// dirty pages into the pool as pool-dirty frames, so the flush must
	// restart to pick them up: truncating the log without re-flushing them
	// would lose those updates at the next crash.
	for attempt := 0; ; attempt++ {
		err := e.checkpointFlush(p)
		if err == nil {
			break
		}
		if !errors.Is(err, device.ErrLost) || attempt >= 2 {
			return err
		}
		if rerr := e.RecoverSSDLoss(p); rerr != nil {
			return rerr
		}
		e.mgr.SetCheckpointing(true)
	}

	if e.cfg.Faults.At(fault.SiteMidCheckpoint) {
		return fault.ErrCrashPoint
	}

	// With warm restart enabled, the checkpoint record carries the SSD
	// buffer table so a restart can reuse the cache (§6).
	var tableBlob []byte
	if e.cfg.WarmRestart {
		tableBlob = e.mgr.SnapshotTable()
	}
	lsn := e.log.Append(wal.Record{Type: wal.TypeCheckpoint, StartLSN: startLSN, Payload: tableBlob})
	e.log.Flush(p, lsn)
	e.log.TruncateThrough(startLSN)
	if e.cfg.Faults.At(fault.SitePostCheckpoint) {
		return fault.ErrCrashPoint
	}
	return nil
}

// checkpointFlush is the flush half of a sharp checkpoint: every dirty pool
// page, then (LC) every dirty SSD page.
func (e *Engine) checkpointFlush(p *sim.Proc) error {
	dirty := e.DirtyPoolPages()
	i := 0
	for i < len(dirty) {
		// Group contiguous page ids into one write, up to checkpointBatch.
		j := i + 1
		for j < len(dirty) && j-i < checkpointBatch && dirty[j] == dirty[j-1]+1 {
			j++
		}
		if err := e.checkpointRun(p, dirty[i:j]); err != nil {
			return err
		}
		i = j
	}
	if e.cfg.Design == ssd.LC {
		return e.mgr.FlushDirty(p)
	}
	return nil
}

// fuzzyCheckpoint records the redo horizon without flushing anything: the
// horizon is just below the oldest update still missing from the disks —
// the minimum RecLSN over dirty pool pages and dirty SSD pages. Recovery
// then redoes everything after it. Restart time grows with the dirty set,
// which is exactly the λ tradeoff §2.3.3 describes.
func (e *Engine) fuzzyCheckpoint(p *sim.Proc) error {
	e.stats.Checkpoints++
	horizon := e.redoPoint(e.log.NextLSN() - 1)
	for _, id := range e.pool.DirtyPages() {
		if f := e.pool.Peek(id); f != nil && f.Dirty && f.RecLSN > 0 && f.RecLSN-1 < horizon {
			horizon = f.RecLSN - 1
		}
	}
	if min, ok := e.mgr.MinDirtyLSN(); ok && min > 0 && min-1 < horizon {
		horizon = min - 1
	}
	var tableBlob []byte
	if e.cfg.WarmRestart {
		tableBlob = e.mgr.SnapshotTable()
	}
	lsn := e.log.Append(wal.Record{Type: wal.TypeCheckpoint, StartLSN: horizon, Payload: tableBlob})
	e.log.Flush(p, lsn)
	e.log.TruncateThrough(horizon)
	return nil
}

// redoPoint lowers a checkpoint's redo point lsn below the first record of
// every live transaction (Engine.live). A checkpoint inside a transaction —
// the periodic checkpointer can run between a Tx.Commit's apply and its
// commit record — flushes the uncommitted after-images with everything
// else; recovery rolls them back only if its replay still starts before the
// transaction's undo records, and the log still holds them.
func (e *Engine) redoPoint(lsn uint64) uint64 {
	for _, first := range e.live {
		if first-1 < lsn {
			lsn = first - 1
		}
	}
	return lsn
}

// checkpointRun flushes one contiguous group of dirty pool pages.
func (e *Engine) checkpointRun(p *sim.Proc, ids []page.ID) error {
	bufs := make([][]byte, 0, len(ids))
	kept := make([]page.ID, 0, len(ids))
	lsns := make([]uint64, 0, len(ids))
	randoms := make([]bool, 0, len(ids))
	var maxLSN uint64
	start := ids[0]
	for _, id := range ids {
		f := e.pool.Peek(id)
		if f == nil || !f.Dirty {
			// Evicted or cleaned since we listed it. A gap would break the
			// contiguous write; fall back to singles from here.
			return e.checkpointSingles(p, ids)
		}
		buf := make([]byte, e.bufSize())
		if err := page.Encode(&f.Pg, buf); err != nil {
			return err
		}
		bufs = append(bufs, buf)
		kept = append(kept, id)
		lsns = append(lsns, f.Pg.LSN)
		randoms = append(randoms, !f.Seq)
		if f.Pg.LSN > maxLSN {
			maxLSN = f.Pg.LSN
		}
	}
	// WAL: the log must be durable up to the newest page image written.
	e.log.Flush(p, maxLSN)
	if err := e.dbWrite(p, device.PageNum(start), bufs); err != nil {
		return err
	}
	for k, id := range kept {
		if err := e.finishCheckpointPage(p, id, lsns[k], randoms[k]); err != nil {
			return err
		}
	}
	return nil
}

// checkpointSingles flushes pages one at a time (used when a planned
// contiguous run was broken by concurrent activity).
func (e *Engine) checkpointSingles(p *sim.Proc, ids []page.ID) error {
	for _, id := range ids {
		f := e.pool.Peek(id)
		if f == nil || !f.Dirty {
			continue
		}
		buf := make([]byte, e.bufSize())
		if err := page.Encode(&f.Pg, buf); err != nil {
			return err
		}
		lsn := f.Pg.LSN
		random := !f.Seq
		e.log.Flush(p, lsn)
		if err := e.dbWrite(p, device.PageNum(id), [][]byte{buf}); err != nil {
			return err
		}
		if err := e.finishCheckpointPage(p, id, lsn, random); err != nil {
			return err
		}
	}
	return nil
}

// finishCheckpointPage marks a flushed page clean (unless re-dirtied while
// the write was in flight) and lets DW piggyback the flush into the SSD
// (§3.2). An SSD error from the piggyback propagates (the page itself is
// already safely on disk); Checkpoint's retry loop handles a lost device.
func (e *Engine) finishCheckpointPage(p *sim.Proc, id page.ID, writtenLSN uint64, random bool) error {
	f := e.pool.Peek(id)
	if f != nil && f.Dirty && f.Pg.LSN == writtenLSN {
		f.Dirty = false
		f.RecLSN = 0
		return e.mgr.OnCheckpointFlush(p, &f.Pg, random)
	}
	return nil
}

// startCheckpointer spawns the periodic checkpoint process. A generation
// counter retires stale checkpointers across crash/recover cycles.
func (e *Engine) startCheckpointer() {
	e.cpGen++
	gen := e.cpGen
	e.env.Go("checkpointer", func(p *sim.Proc) {
		for {
			p.Sleep(e.cfg.CheckpointInterval)
			if e.checkpointStop || e.crashed || e.cpGen != gen {
				return
			}
			// A full log skips its periodic checkpoints for good: they would
			// only eat the space kept for Close's.
			if err := e.Checkpoint(p); err != nil && !errors.Is(err, ErrLogFull) {
				if errors.Is(err, fault.ErrCrashPoint) {
					// An armed crash site fired inside a periodic
					// checkpoint: stop here and let the fault driver
					// (which polls the injector) crash the engine.
					return
				}
				panic("engine: checkpoint: " + err.Error())
			}
		}
	})
}

// StopBackground asks background processes (checkpointer, cleaner,
// scrubber) to exit.
func (e *Engine) StopBackground() {
	e.checkpointStop = true
	e.mgr.StopCleaner()
	e.mgr.StopScrubber()
}
