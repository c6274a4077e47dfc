package ssd

// The background scrubber: a process (like the LC cleaner beside it — it is
// off every hot path, one wake-up per ScrubPeriod) that periodically sweeps SSD-resident frames, re-reads their bytes and verifies checksum,
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
	ReadEncodedTask(t *sim.Task, start page.ID, bufs [][]byte, k func(error))
}

// StartScrubber spawns the background scrub process when Config.ScrubPeriod
// is positive and the SSD is present. Each wake-up sweeps up to ScrubBatch
// verifiable frames forward from a wrapping cursor, stopping early after one
// full lap or when the device is lost or quarantined. Restored frames are
// skipped: their recorded LSN does not describe the stored bytes until the
// first foreground read validates them.
func (m *Manager) StartScrubber() {
	if m.cfg.ScrubPeriod <= 0 || !m.Enabled() {
		return
	}
	m.env.Go("ssd-scrub", func(p *sim.Proc) {
		cursor := 0 // next frame slot to examine
		for !m.scrubStop {
			p.Sleep(m.cfg.ScrubPeriod)
			if m.scrubStop {
				return
			}
			m.stats.ScrubSweeps++
			left := m.cfg.ScrubBatch
			for lap := 0; left > 0 && lap < len(m.frames) && !m.lost && !m.quarantined && !m.scrubStop; lap++ {
				idx := cursor
				cursor = (cursor + 1) % len(m.frames)
				rec := &m.frames[idx]
				if !rec.has(fOccupied) || !rec.has(fValid) || rec.io > 0 || rec.has(fRestored) {
					continue
				}
				left--
				m.scrubFrame(p, idx)
			}
		}
	})
}

// StopScrubber asks the scrubber to exit at its next wake-up.
func (m *Manager) StopScrubber() { m.scrubStop = true }

// verifyExact decodes buf and checks it is exactly version lsn of page pid;
// dev and slot name where the bytes were read from.
func verifyExact(buf []byte, pid page.ID, lsn uint64, dev string, slot int64) error {
	var got page.Page
	if err := page.DecodeAs(buf, pid, dev, slot, &got); err != nil {
		return err
	}
	if got.LSN != lsn {
		return &page.ChecksumError{ID: pid, Device: dev, Slot: slot,
			Reason: "lsn", Got: got.LSN, Want: lsn}
	}
	return nil
}

// scrubFrame re-reads frame idx under a pin, verifies it and runs the
// matching repair.
func (m *Manager) scrubFrame(p *sim.Proc, idx int) {
	rec := &m.frames[idx]
	// Identity of the frame under verification, captured before the first
	// device wait so a frame reclaimed or re-admitted meanwhile is
	// recognized as stale rather than corrupt.
	pid, lsn := rec.pid, rec.lsn
	stale := func() bool { return !rec.has(fOccupied) || rec.pid != pid || !rec.has(fValid) || rec.lsn != lsn }
	rec.io++
	vec := m.bufs.Vec(1) // one buffer, carrying the frame through every transfer below
	buf := vec[0]
	defer func() {
		m.bufs.PutVec(vec)
		rec.io--
		m.frameIdle(idx)
	}()
	err := device.Read(p, m.dev, device.PageNum(idx), vec)
	m.stats.ScrubFrames++
	if err != nil {
		m.noteDeviceErr(err)
		return
	}
	if stale() || verifyExact(buf, pid, lsn, "ssd", int64(idx)) == nil {
		return
	}
	if rec.has(fDirty) {
		// The only up-to-date copy of the page failed verification: condemn
		// the frame and reconstruct the page from the WAL (invariants I1/I2
		// guarantee the redo records are still there).
		m.stats.CorruptDirty++
		m.noteCorrupt(idx)
		if m.repair != nil {
			m.env.Go("scrub-repair", func(p *sim.Proc) {
				if rerr := m.repair.RepairDirtyPage(p, pid); rerr == nil {
					m.stats.CorruptRepaired++
				}
			})
		}
		return
	}
	// Clean frame: the disk still holds an intact copy. Count the bad
	// slot; a slot that just retired (or a disk without a read side) is
	// dropped — the drop is the repair, reads fall through to disk —
	// otherwise rewrite the frame in place from the disk copy.
	retired := m.noteBadSlot(idx)
	dr, ok := m.disk.(DiskReader)
	if retired || !ok || m.quarantined {
		m.condemnFrame(idx)
		m.stats.CorruptRepaired++
		return
	}
	err = p.Await(func(t *sim.Task, done func(error)) { dr.ReadEncodedTask(t, pid, vec, done) })
	if stale() {
		// The frame was invalidated or re-admitted while the disk read was
		// in flight; whatever lives there now is not ours to rewrite.
		return
	}
	if err == nil {
		// The disk copy must really be the version the frame claimed to cache.
		err = verifyExact(buf, pid, lsn, "db", int64(pid))
	}
	if err != nil {
		// The disk copy cannot prove itself either. Drop the frame — the
		// engine's foreground read repairs the disk page through its own
		// ladder (SSD copy is gone, so WAL or error) on next access.
		m.condemnFrame(idx)
		return
	}
	err = device.Write(p, m.dev, device.PageNum(idx), vec)
	if err != nil {
		m.noteDeviceErr(err)
		m.condemnFrame(idx) // frame contents now unknown
		return
	}
	m.stats.ScrubRepairs++
	m.stats.CorruptRepaired++
}
