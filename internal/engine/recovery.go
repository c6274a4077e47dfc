package engine

import (
	"turbobp/internal/bufpool"
	"turbobp/internal/fault"
	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/wal"
)

// Crash simulates a power failure: the memory buffer pool and all
// non-durable log records vanish. The SSD's contents physically survive
// but — as in the paper, where no design leverages the SSD across restarts
// (§6) — the SSD buffer pool file is recreated at startup, so the manager
// is rebuilt empty. Only the disks and the durable log carry state across.
func (e *Engine) Crash() {
	e.crashed = true
	e.cpGen++     // retire any running checkpointer
	clear(e.live) // recovery resolves every transaction the crash interrupted
	// In-flight eviction writebacks die with the crash; drop their entries
	// so post-recovery fetches don't wait on a broadcast that never comes.
	clear(e.evicting)
	e.pool.Reset()
	e.log.Crash()
	e.mgr.StopCleaner()
	e.mgr.StopScrubber()
	e.mgr = e.newManager()
}

// RecoverSSDLoss handles a whole-SSD failure during forward processing: the
// cache is rebuilt empty on a replacement device and every page whose only
// up-to-date copy lived on the SSD (LC's uniquely-dirty pages) is rebuilt in
// the memory pool by redoing its durable WAL records against the disk image.
// CW, DW and TAC never have uniquely-dirty SSD pages, so for them this is
// just a cache rebuild — the paper's §2 durability argument, exercised.
//
// The WAL protocol guarantees the redo records exist: a page reaches the SSD
// only after the log is forced through its LSN, and checkpoints (sharp via
// FlushDirty, fuzzy via MinDirtyLSN) never truncate records still needed by
// a dirty SSD page.
func (e *Engine) RecoverSSDLoss(p *sim.Proc) error {
	lost := e.mgr.DirtyPageIDs()
	e.mgr.StopCleaner()
	e.mgr.StopScrubber()
	e.stats.SSDLosses++
	if fd, ok := e.ssdDev.(*fault.Device); ok {
		fd.Replace()
	}
	e.mgr = e.newManager()
	e.mgr.StartCleaner()
	if !e.checkpointStop {
		e.mgr.StartScrubber()
	}
	if len(lost) == 0 {
		return nil
	}
	need := make(map[page.ID]bool, len(lost))
	for _, pid := range lost {
		need[pid] = true
	}
	redo := make(map[page.ID][]wal.Record, len(lost))
	for _, rec := range e.log.Durable() {
		if rec.Type == wal.TypeUpdate && need[rec.Page] {
			redo[rec.Page] = append(redo[rec.Page], rec)
		}
	}
	for _, pid := range lost {
		// Get serves pid from the pool if resident, else from disk (the new
		// SSD is empty) — either way f.Pg.LSN tells which records to apply.
		f, err := e.Get(p, pid)
		if err != nil {
			return err
		}
		for _, rec := range redo[pid] {
			if rec.LSN <= f.Pg.LSN {
				continue
			}
			r := rec
			e.pool.MutateFrame(f, func(payload []byte) { copy(payload, r.Payload) })
			f.Pg.LSN = rec.LSN
			e.stats.SSDLossRedo++
		}
		if !f.Dirty {
			// The disk copy is stale (the page was uniquely dirty), so the
			// rebuilt frame must flush eventually. RecLSN is the oldest
			// durable record for the page — possibly older than the oldest
			// update actually missing from disk, which only makes fuzzy
			// checkpoints keep a little extra log, never lose one.
			f.Dirty = true
			if recs := redo[pid]; len(recs) > 0 {
				f.RecLSN = recs[0].LSN
			} else {
				f.RecLSN = f.Pg.LSN
			}
		}
	}
	return nil
}

// TxResolver decides the fate of an in-doubt (prepared but undecided)
// two-phase-commit participant: given the global transaction id from its
// prepare record, return true to commit, false to abort. A nil resolver
// aborts every in-doubt transaction (presumed abort with no coordinator).
type TxResolver func(gtx uint64) bool

// SetTxResolver installs the resolver Recover and RecoverDurable consult for
// in-doubt transactions (the file backend's coordinator log).
func (e *Engine) SetTxResolver(resolve TxResolver) { e.resolve = resolve }

// RecoverDurable is the restart-recovery pass of the file backend: called
// on a freshly-built engine whose log was reloaded from the persisted
// device (wal.LoadDurable), it replays the durable stream (see replay).
func (e *Engine) RecoverDurable(p *sim.Proc) error {
	from := uint64(0)
	if cp, ok := e.log.LastCheckpoint(); ok {
		from = cp.StartLSN
	}
	return e.replay(p, from)
}

// replay is the one redo/undo pass over the durable log records newer than
// LSN from, behind Recover and RecoverDurable alike.
//
// On the model engine (New) commits are implied by the force discipline and
// every transaction counts as committed: replay redoes every update record.
// On the real-device engine (NewWithDevices, commit records) replay must
// separate transactions a killed process had committed from ones it had
// not, because dirty evictions force the log and write pages back
// regardless of commit status:
//
//   - Update records redo only when their transaction committed: a commit
//     record follows it in the stream, or its prepare record's global id
//     resolves to commit.
//   - Undo records (before-images) of every other transaction apply in
//     reverse log order, rolling back any uncommitted state an eviction
//     leaked to the database device. Reverse order matters when several
//     uncommitted transactions layered writes on one page: a later one's
//     before-image captures an earlier one's uncommitted data, so unwinding
//     newest-first ends on the oldest before-image — the committed state
//     (log forcing is prefix-ordered, so no transaction that committed
//     durably can follow an uncommitted one on the same page).
//
// Pages touched by redo or undo are left dirty in the pool, as a redo pass
// leaves them; the next checkpoint (or Close) writes them back.
func (e *Engine) replay(p *sim.Proc, from uint64) error {
	recs := e.log.Durable()
	txCommitted := func(uint64) bool { return true }
	if e.commitRecords {
		committed := make(map[uint64]bool)
		prepared := make(map[uint64]uint64) // local tx id -> global tx id
		for _, rec := range recs {
			switch rec.Type {
			case wal.TypeCommit:
				committed[rec.TxID] = true
			case wal.TypePrepare:
				prepared[rec.TxID] = rec.StartLSN
			}
		}
		txCommitted = func(tx uint64) bool {
			if committed[tx] {
				return true
			}
			if gtx, ok := prepared[tx]; ok {
				return e.resolve != nil && e.resolve(gtx)
			}
			return false
		}
	}
	apply := func(f *bufpool.Frame, rec wal.Record) {
		if !f.Dirty {
			f.Dirty = true
			f.RecLSN = rec.LSN
			// Dirtying a page invalidates its SSD copy, during replay as in
			// forward processing — a stale clean copy admitted earlier in
			// this same pass must not survive.
			e.mgr.Invalidate(rec.Page)
		}
		e.pool.MutateFrame(f, func(payload []byte) { copy(payload, rec.Payload) })
		f.Pg.LSN = rec.LSN
		e.stats.RedoApplied++
	}
	// Redo pass, forward: committed transactions' after-images. Track the
	// highest committed-update LSN seen per page — whether or not the
	// physical apply was skipped — so the undo pass can tell live aborts
	// from stale ones.
	lastCommitted := make(map[page.ID]uint64)
	for _, rec := range recs {
		if rec.Type != wal.TypeUpdate || rec.LSN <= from {
			continue
		}
		if !txCommitted(rec.TxID) {
			e.stats.RedoSkipped++
			continue
		}
		lastCommitted[rec.Page] = rec.LSN
		f, err := e.Get(p, rec.Page)
		if err != nil {
			return err
		}
		if f.Pg.LSN >= rec.LSN {
			e.stats.RedoSkipped++
			continue // the disk already has this update or a newer one
		}
		apply(f, rec)
	}
	// Undo pass, backward: uncommitted transactions' before-images,
	// newest-first (see the doc comment for why order matters).
	//
	// An undo is skipped when a committed update to the same page carries a
	// higher LSN. Within one process incarnation that cannot happen — the
	// partition lock is held until commit or crash, so an uncommitted
	// transaction's records are the last for its pages. But an in-doubt
	// transaction aborted by a *previous* recovery leaves its records in
	// the log unresolved: a later incarnation commits new writes to the
	// same page, and on the next restart the stale before-image — captured
	// before those writes — would clobber them. The later committed
	// after-image was taken from post-abort state, so it already
	// incorporates the rollback; the stale undo has nothing left to undo.
	for i := len(recs) - 1; i >= 0; i-- {
		rec := recs[i]
		if rec.Type != wal.TypeUndo || rec.LSN <= from || txCommitted(rec.TxID) {
			continue
		}
		if lastCommitted[rec.Page] > rec.LSN {
			e.stats.RedoSkipped++
			continue // stale abort, superseded by a later committed write
		}
		f, err := e.Get(p, rec.Page)
		if err != nil {
			return err
		}
		apply(f, rec)
	}
	return nil
}

// Recover restarts the engine after a Crash: replay the durable records
// newer than the last checkpoint's start LSN against the disk image (see
// replay), then restart the background processes. The time Recover charges
// is the paper's "restart time".
func (e *Engine) Recover(p *sim.Proc) error {
	from := uint64(0)
	if cp, ok := e.log.LastCheckpoint(); ok {
		from = cp.StartLSN
		// Warm restart (§6): rebuild the SSD cache metadata from the
		// buffer table persisted in the checkpoint record. The device
		// contents survived the crash; redo below invalidates any entry
		// it supersedes, and the WAL protocol guarantees no other entry
		// can be stale.
		if e.cfg.WarmRestart && len(cp.Payload) > 0 {
			if err := e.mgr.RestoreTable(cp.Payload); err != nil {
				return err
			}
		}
	}
	if err := e.replay(p, from); err != nil {
		return err
	}
	e.crashed = false
	e.mgr.StartCleaner()
	if !e.checkpointStop {
		e.mgr.StartScrubber()
	}
	if e.cfg.CheckpointInterval > 0 && !e.checkpointStop {
		e.startCheckpointer()
	}
	return nil
}
