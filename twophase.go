package turbobp

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync"

	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/wal"
)

// This file is Tx.Commit. On every backend it applies the buffered mutations
// under the participants' mutexes with before-images logged first; on the
// file backend it also makes cross-partition transactions crash-atomic by
// running presumed-abort two-phase commit over the partitions' per-partition
// WALs, coordinated by a small append-only decision log (txn.log).
//
// Protocol, per Tx.Commit spanning several partitions:
//
//  1. Apply. All participant partition mutexes are taken in ascending base
//     order and held to the end. In each participant a local transaction is
//     begun and, for every page, the before-image is logged as an undo
//     record before the buffered mutations apply (after-images log as usual).
//  2. Prepare. Each participant appends and flushes a prepare record binding
//     its local transaction to the global transaction id. When a durability
//     mode is configured the shared log file is fsynced here, so prepares
//     can never be less durable than the decision that follows.
//  3. Decide. One commit-decision record for the global id is appended to
//     the coordinator log (and fsynced under a durability mode). This write
//     is the commit point.
//  4. Commit. Each participant appends and flushes its commit record, the
//     mutexes release, and a configured group commit forces the tail.
//
// Recovery (Options.OpenExisting) resolves each partition's in-doubt
// transactions — prepared, no commit record — by asking the reloaded
// coordinator log: a recorded decision redoes the transaction, no decision
// aborts it by restoring the logged before-images (presumed abort, so the
// coordinator log only ever records commits). Within one incarnation the
// participant mutexes are held across the whole window, so an aborted
// transaction's records are the last for its pages and the before-images
// restore committed state. The abort itself is never logged, though, so the
// same in-doubt records resolve to abort again on every later restart;
// recovery guards against replaying such a stale before-image over data a
// later incarnation committed (see the engine's replay).
//
// Single-partition transactions — every transaction of a one-partition DB,
// the simulated backend included — skip steps 2–3: their commit record alone
// decides them, exactly like an autocommit update.

// coordLog is the two-phase-commit coordinator's decision log: an
// append-only file of WAL-framed commit records, one per decided-commit
// global transaction. Presumed abort means absence is an abort decision, so
// nothing is ever logged for aborts and a torn tail (a record half-written
// when the process died) reads as "no decision" — the safe outcome, since
// no participant has committed before the decision write returns. Damage
// anywhere else would erase acknowledged decisions, so it fails the open.
type coordLog struct {
	mu        sync.Mutex
	f         *os.File
	sync      bool // fsync each decision (CommitSync != CommitSyncNone)
	buf       []byte
	committed map[uint64]bool // global tx id -> decided commit
	maxGtx    uint64
}

// openCoordLog opens (or, when fresh is true, truncates) the decision log
// at path and loads the decided set, truncating any torn tail so later
// appends land after the last intact record. The log is only ever
// appended, so a record that fails to decode is a torn tail only if no
// later byte offset decodes a CRC-valid record; otherwise the failure is
// damage before acknowledged decisions, and openCoordLog fails with
// wal.ErrLogDamaged, naming the file and the offset, and truncates nothing.
func openCoordLog(path string, fresh, sync bool) (*coordLog, error) {
	flags := os.O_RDWR | os.O_CREATE
	if fresh {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	cl := &coordLog{f: f, sync: sync, committed: make(map[uint64]bool)}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	end := 0
	for end < len(data) {
		r, sz, err := wal.DecodeRecord(data[end:])
		if err != nil {
			break // torn tail: no decision was recorded here
		}
		if r.Type == wal.TypeCommit {
			cl.committed[r.TxID] = true
			if r.TxID > cl.maxGtx {
				cl.maxGtx = r.TxID
			}
		}
		end += sz
	}
	for q := end + 1; q < len(data); q++ {
		if _, _, err := wal.DecodeRecord(data[q:]); err == nil {
			f.Close()
			return nil, fmt.Errorf("%w: %s: the record at byte %d fails its check, but a record at byte %d follows it",
				wal.ErrLogDamaged, path, end, q)
		}
	}
	if end < len(data) {
		if err := f.Truncate(int64(end)); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(int64(end), 0); err != nil {
		f.Close()
		return nil, err
	}
	return cl, nil
}

// logCommit records the commit decision for global transaction gtx. When it
// returns, the decision is in the OS (and on the platter under a durability
// mode): the transaction is committed no matter what happens next.
func (cl *coordLog) logCommit(gtx uint64) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.buf = wal.EncodeRecord(cl.buf[:0], wal.Record{Type: wal.TypeCommit, LSN: gtx, TxID: gtx})
	if _, err := cl.f.Write(cl.buf); err != nil {
		return fmt.Errorf("turbobp: coordinator log: %w", err)
	}
	if cl.sync {
		if err := cl.f.Sync(); err != nil {
			return fmt.Errorf("turbobp: coordinator log sync: %w", err)
		}
	}
	cl.committed[gtx] = true
	return nil
}

// isCommitted reports whether a commit decision was recorded for gtx.
func (cl *coordLog) isCommitted(gtx uint64) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.committed[gtx]
}

func (cl *coordLog) close() error { return cl.f.Close() }

// undoImage remembers one page's before-image so a failed transaction can
// be compensated in place.
type undoImage struct {
	local  int64
	before []byte
}

// participant is one partition's share of a cross-partition transaction.
type participant struct {
	pt    *partition
	local []int64                // partition-local page ids, ascending
	fns   map[int64]func([]byte) // local id -> chained buffered mutations
	id    uint64                 // local transaction id (assigned under pt.mu)
	undos []undoImage
}

// logImages is the most page images the participant can log: a before- and
// an after-image per page, and one more if the transaction is compensated.
func (pc *participant) logImages() int { return 3 * len(pc.local) }

// Commit applies the transaction's buffered updates and makes them durable:
// presumed-abort two-phase commit when they span partitions (see the file
// comment), the one-phase fast path when one partition holds them all.
func (tx *Tx) Commit() error {
	db := tx.db
	if db.closed.Load() {
		return ErrClosed
	}
	writes := tx.writes
	tx.writes = nil
	if len(writes) == 0 {
		return nil
	}

	// Group the buffered pages by partition; chain each page's mutations.
	byPart := make(map[*partition]*participant)
	for pid, fns := range writes {
		pt, local := db.partOf(pid)
		pc := byPart[pt]
		if pc == nil {
			pc = &participant{pt: pt, fns: make(map[int64]func([]byte))}
			byPart[pt] = pc
		}
		pc.local = append(pc.local, local)
		chain := fns
		pc.fns[local] = func(p []byte) {
			for _, fn := range chain {
				fn(p)
			}
		}
	}
	parts := make([]*participant, 0, len(byPart))
	for _, pc := range byPart {
		slices.Sort(pc.local)
		parts = append(parts, pc)
	}
	slices.SortFunc(parts, func(a, b *participant) int { return cmp.Compare(a.pt.base, b.pt.base) })

	if err := db.txCommitLocked(parts); err != nil {
		return err
	}
	return db.syncCommit()
}

// txCommitLocked runs the protocol with every participant mutex held
// (taken ascending, released before return).
func (db *DB) txCommitLocked(parts []*participant) error {
	for _, pc := range parts {
		pc.pt.mu.Lock()
	}
	reserved := 0 // participants holding a log reservation
	defer func() {
		for _, pc := range parts[:reserved] {
			pc.pt.eng.ReleaseLog(pc.logImages())
		}
		for i := len(parts) - 1; i >= 0; i-- {
			parts[i].pt.mu.Unlock()
		}
	}()
	// Refuse before anything applies if a participant's log cannot hold its
	// share (ErrLogFull).
	for _, pc := range parts {
		if err := pc.pt.eng.ReserveLog(pc.logImages()); err != nil {
			return err
		}
		reserved++
	}

	// Apply: begin a local transaction per participant, log before-images,
	// run the buffered mutations.
	for i, pc := range parts {
		pc := pc
		err := pc.pt.do("tx-apply", func(p *sim.Proc) error {
			pc.id = pc.pt.eng.Begin()
			for _, local := range pc.local {
				f, err := pc.pt.eng.Get(p, page.ID(local))
				if err != nil {
					return err
				}
				before := append([]byte(nil), f.Pg.Payload...)
				pc.pt.eng.LogUndo(page.ID(local), pc.id, before)
				pc.undos = append(pc.undos, undoImage{local: local, before: before})
				if err := pc.pt.eng.Update(p, pc.id, page.ID(local), pc.fns[local]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			compensate(parts[:i+1])
			return err
		}
	}

	// One participant: its commit record alone decides the transaction.
	if len(parts) == 1 {
		pc := parts[0]
		return pc.pt.do("tx-commit", func(p *sim.Proc) error {
			return pc.pt.eng.Commit(p, pc.id)
		})
	}

	gtx := db.nextGtx.Add(1)

	// Prepare: force each participant's records with a prepare binding its
	// local transaction to gtx; then make the prepares as durable as the
	// decision will be.
	for _, pc := range parts {
		pc := pc
		err := pc.pt.do("tx-prepare", func(p *sim.Proc) error {
			return pc.pt.eng.Prepare(p, pc.id, gtx)
		})
		if err != nil {
			compensate(parts)
			return err
		}
	}
	if db.gc != nil {
		if err := db.gc.Commit(); err != nil {
			compensate(parts)
			return err
		}
	}
	if db.crash2PC != nil {
		if err := db.crash2PC("prepared"); err != nil {
			return err
		}
	}

	// Decide: the commit point.
	if err := db.coord.logCommit(gtx); err != nil {
		compensate(parts)
		return err
	}
	if db.crash2PC != nil {
		if err := db.crash2PC("decided"); err != nil {
			return err
		}
	}

	// Commit each participant; a failure here cannot un-commit the
	// transaction (the decision is logged) — recovery will finish the job.
	var firstErr error
	for _, pc := range parts {
		pc := pc
		err := pc.pt.do("tx-commit", func(p *sim.Proc) error {
			return pc.pt.eng.Commit(p, pc.id)
		})
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// compensate rolls back participants whose mutations may have applied:
// each gets a fresh committed transaction restoring the logged
// before-images in reverse order, and its local transaction is then
// forgotten (engine.Forget). Called with the participant mutexes held;
// best-effort (the caller returns the original error regardless). A
// participant whose compensation fails stays live: its uncommitted state is
// still in the pool, and its undo records are what the next restart rolls it
// back with.
func compensate(parts []*participant) {
	for _, pc := range parts {
		pc := pc
		if len(pc.undos) == 0 {
			pc.pt.eng.Forget(pc.id) // nothing applied, nothing to undo
			continue
		}
		err := pc.pt.do("tx-rollback", func(p *sim.Proc) error {
			id := pc.pt.eng.Begin()
			for i := len(pc.undos) - 1; i >= 0; i-- {
				u := pc.undos[i]
				err := pc.pt.eng.Update(p, id, page.ID(u.local), func(pl []byte) {
					copy(pl, u.before)
				})
				if err != nil {
					return err
				}
			}
			return pc.pt.eng.Commit(p, id)
		})
		if err == nil {
			pc.pt.eng.Forget(pc.id)
		}
	}
}
