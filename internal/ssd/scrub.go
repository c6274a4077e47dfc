package ssd

// The background scrubber: a run-to-completion sim task that periodically
// sweeps SSD-resident frames, re-reads their bytes and verifies checksum,
// page id and LSN before the engine ever trips over a decayed cell.
//
// A corrupt clean frame is repaired in place from the disk copy (read it
// back, verify it, rewrite the frame); a corrupt dirty frame — the only
// up-to-date copy — is condemned and its page reconstructed through the
// configured Repairer (WAL redo). Slots that keep failing are retired via
// the same noteBadSlot accounting as the foreground read path, so a wearing
// device drifts toward quarantine instead of serving wrong answers.
//
// The scrubber is disabled by default (Config.ScrubPeriod == 0): fault-free
// golden runs schedule no scrub events and stay byte-identical.

import (
	"turbobp/internal/device"
	"turbobp/internal/page"
	"turbobp/internal/sim"
)

// DiskReader is the optional read side of the Disk dependency: the scrubber
// uses it to fetch a page's disk copy when repairing a frame in place. A
// Disk that does not implement it limits the scrubber to detect-and-drop.
type DiskReader interface {
	ReadEncodedTask(t *sim.Task, pid page.ID, buf []byte, k func(error))
}

// scrubOp is the scrubber's run-to-completion state: one long-lived
// instance per manager, its continuations bound once at start so the
// steady-state sweep allocates nothing.
type scrubOp struct {
	m      *Manager
	t      *sim.Task
	cursor int // next frame slot to examine (wraps)
	left   int // frames still to verify in this sweep
	lap    int // slots examined this wake-up (stop after one full lap)

	// Identity of the frame under verification, captured at issue time so a
	// frame reclaimed or re-admitted mid-read is recognized as stale rather
	// than corrupt.
	idx int
	pid page.ID
	lsn uint64
	buf []byte
	vec [][]byte

	onWake       func()
	onRead       func(error)
	onRepairRead func(error)
	onRewrite    func(error)
}

// StartScrubber spawns the background scrub task when Config.ScrubPeriod is
// positive. Returns nil when scrubbing is disabled or the SSD is absent.
func (m *Manager) StartScrubber() *sim.Task {
	if m.cfg.ScrubPeriod <= 0 || !m.Enabled() {
		return nil
	}
	o := &scrubOp{m: m}
	o.onWake = o.wake
	o.onRead = o.read
	o.onRepairRead = o.repairRead
	o.onRewrite = o.rewritten
	return m.env.Spawn("ssd-scrub", func(t *sim.Task) {
		o.t = t
		o.idle()
	})
}

// StopScrubber asks the scrubber to exit at its next wake-up.
func (m *Manager) StopScrubber() { m.scrubStop = true }

// idle parks the task until the next scrub period.
func (o *scrubOp) idle() {
	if o.m.scrubStop {
		return
	}
	o.t.Sleep(o.m.cfg.ScrubPeriod, o.onWake)
}

// wake starts one sweep of up to ScrubBatch resident frames.
func (o *scrubOp) wake() {
	m := o.m
	if m.scrubStop {
		return
	}
	m.stats.ScrubSweeps++
	o.left = m.cfg.ScrubBatch
	o.lap = 0
	o.step()
}

// step scans forward from the cursor for the next verifiable frame and
// issues its SSD read, or parks until the next period once the batch (or a
// full lap) is done. Restored frames are skipped: their recorded LSN does
// not describe the stored bytes until the first foreground read validates
// them.
func (o *scrubOp) step() {
	m := o.m
	for {
		if m.scrubStop {
			return
		}
		if o.left <= 0 || o.lap >= len(m.frames) || m.lost || m.quarantined {
			o.idle()
			return
		}
		idx := o.cursor
		o.cursor++
		if o.cursor >= len(m.frames) {
			o.cursor = 0
		}
		o.lap++
		rec := &m.frames[idx]
		if !rec.occupied || !rec.valid || rec.io > 0 || rec.restored {
			continue
		}
		o.left--
		o.idx = idx
		o.pid, o.lsn = rec.pid, rec.lsn
		rec.io++
		o.buf = m.getBuf()
		vec := m.getVec(1)
		vec = append(vec, o.buf)
		o.vec = vec
		m.dev.ReadTask(o.t, device.PageNum(idx), vec, o.onRead)
		return
	}
}

// finish releases the frame pin and scratch buffer, then continues the
// sweep.
func (o *scrubOp) finish() {
	m := o.m
	m.putBuf(o.buf)
	o.buf = nil
	m.frames[o.idx].io--
	m.frameIdle(o.idx)
	o.step()
}

// read handles the SSD read completing: verify the bytes and dispatch the
// matching repair path.
func (o *scrubOp) read(err error) {
	m := o.m
	m.putVec(o.vec)
	o.vec = nil
	m.stats.ScrubFrames++
	rec := &m.frames[o.idx]
	if err != nil {
		m.stats.ReadErrors++
		m.noteDeviceErr(err)
		o.finish()
		return
	}
	if !rec.occupied || rec.pid != o.pid || !rec.valid || rec.lsn != o.lsn {
		o.finish() // frame moved under us: nothing to verify
		return
	}
	var got page.Page
	verr := page.Decode(o.buf, &got)
	if verr == nil && got.ID != o.pid {
		verr = &page.ChecksumError{ID: o.pid, Device: "ssd", Slot: int64(o.idx),
			Reason: "id", Got: uint64(got.ID), Want: uint64(o.pid)}
	}
	if verr == nil && got.LSN != o.lsn {
		verr = &page.ChecksumError{ID: o.pid, Device: "ssd", Slot: int64(o.idx),
			Reason: "lsn", Got: got.LSN, Want: o.lsn}
	}
	if verr == nil {
		o.finish()
		return
	}
	if rec.dirty {
		// The only up-to-date copy of the page failed verification: condemn
		// the frame and reconstruct the page from the WAL (invariants I1/I2
		// guarantee the redo records are still there).
		m.stats.CorruptDirty++
		m.noteCorrupt(o.idx)
		if m.cfg.Repair != nil {
			pid := o.pid
			m.env.Go("scrub-repair", func(p *sim.Proc) {
				if rerr := m.cfg.Repair.RepairDirtyPage(p, pid); rerr == nil {
					m.stats.CorruptRepaired++
				}
			})
		}
		o.finish()
		return
	}
	// Clean frame: the disk still holds an intact copy. Count the bad
	// slot; a slot that just retired (or a disk without a read side) is
	// dropped — the drop is the repair, reads fall through to disk —
	// otherwise rewrite the frame in place from the disk copy.
	retired := m.noteBadSlot(o.idx)
	dr, ok := m.disk.(DiskReader)
	if retired || !ok || m.quarantined {
		m.condemnFrame(o.idx)
		m.stats.CorruptRepaired++
		o.finish()
		return
	}
	dr.ReadEncodedTask(o.t, o.pid, o.buf, o.onRepairRead)
}

// repairRead handles the disk copy arriving for an in-place repair: verify
// it really is the version the frame claimed to cache before rewriting.
func (o *scrubOp) repairRead(err error) {
	m := o.m
	rec := &m.frames[o.idx]
	if !rec.occupied || rec.pid != o.pid || !rec.valid || rec.lsn != o.lsn {
		// The frame was invalidated or re-admitted while the disk read was
		// in flight; whatever lives there now is not ours to rewrite.
		o.finish()
		return
	}
	var got page.Page
	if err == nil {
		err = page.Decode(o.buf, &got)
	}
	if err == nil && got.ID != o.pid {
		err = &page.ChecksumError{ID: o.pid, Device: "db", Slot: int64(o.pid),
			Reason: "id", Got: uint64(got.ID), Want: uint64(o.pid)}
	}
	if err == nil && got.LSN != o.lsn {
		err = &page.ChecksumError{ID: o.pid, Device: "db", Slot: int64(o.pid),
			Reason: "lsn", Got: got.LSN, Want: o.lsn}
	}
	if err != nil {
		// The disk copy cannot prove itself either. Drop the frame — the
		// engine's foreground read repairs the disk page through its own
		// ladder (SSD copy is gone, so WAL or error) on next access.
		m.condemnFrame(o.idx)
		o.finish()
		return
	}
	vec := m.getVec(1)
	vec = append(vec, o.buf)
	o.vec = vec
	m.dev.WriteTask(o.t, device.PageNum(o.idx), vec, o.onRewrite)
}

// rewritten handles the repair write completing.
func (o *scrubOp) rewritten(err error) {
	m := o.m
	m.putVec(o.vec)
	o.vec = nil
	if err != nil {
		m.stats.WriteErrors++
		m.noteDeviceErr(err)
		m.condemnFrame(o.idx) // frame contents now unknown
	} else {
		m.stats.ScrubRepairs++
		m.stats.CorruptRepaired++
	}
	o.finish()
}
