package ssd

import (
	"time"

	"turbobp/internal/device"
	"turbobp/internal/fault"
	"turbobp/internal/page"
	"turbobp/internal/sim"
)

// cleanTargetSlack returns how far below the λ threshold the cleaner drives
// the dirty count: "about 0.01% of the SSD space below the threshold"
// (§2.3.3), at least one page.
func (m *Manager) cleanTargetSlack() int {
	slack := m.cfg.SSDFrames / 10000
	if slack < 1 {
		slack = 1
	}
	return slack
}

// dirtyThreshold returns λ·S, the dirty-page count that wakes the cleaner.
func (m *Manager) dirtyThreshold() int {
	return int(m.cfg.DirtyFraction * float64(m.cfg.SSDFrames))
}

// StartCleaner spawns the background lazy-cleaning thread (LC only). It
// polls the dirty count and, when it exceeds λ·S, copies dirty SSD pages
// back to the disk in group-cleaned batches until slightly below the
// threshold. Returns nil for non-LC designs.
func (m *Manager) StartCleaner() *sim.Proc {
	if m.cfg.Design != LC || !m.Enabled() {
		return nil
	}
	return m.env.Go("lc-cleaner", func(p *sim.Proc) {
		for !m.cleanerStop {
			thresh := m.dirtyThreshold()
			target := thresh - m.cleanTargetSlack()
			if m.quarantined {
				// Drain: a quarantined SSD takes no new admissions, but its
				// dirty frames are still the only up-to-date copies. Clean
				// them all so the device can go fully pass-through.
				target = 0
				thresh = 0
			}
			if m.dirtyCount > thresh {
				m.stats.CleanerRuns++
				for m.dirtyCount > target && !m.cleanerStop {
					if !m.cleanOnce(p) {
						break
					}
				}
			}
			p.Sleep(cleanerPoll)
		}
	})
}

// StopCleaner asks the cleaner process to exit at its next wakeup.
func (m *Manager) StopCleaner() { m.cleanerStop = true }

// oldestDirty returns the frame index of the globally oldest dirty page
// (the dirty heap root across shards), or -1.
func (m *Manager) oldestDirty() int {
	best := -1
	var bestLast, bestPrev int64
	for i := range m.shards {
		idx, ok := m.shards[i].dirty.victim()
		if !ok {
			continue
		}
		rec := &m.frames[idx]
		if best < 0 || int64(rec.prev) < bestPrev ||
			(int64(rec.prev) == bestPrev && int64(rec.last) < bestLast) {
			best = idx
			bestLast, bestPrev = int64(rec.last), int64(rec.prev)
		}
	}
	return best
}

// gatherRun collects up to α dirty SSD pages with consecutive disk
// addresses around seed's page (§3.3.5), extending backward then forward.
// Only idle (io == 0) frames join the run. The run is written into dst
// (reused scratch) and returned.
func (m *Manager) gatherRun(seed int, dst []int) (start page.ID, frames []int) {
	pid := m.frames[seed].pid
	start = pid
	// Probe backward first; dirtyIdleFrame only reads, so re-resolving the
	// back range when filling below sees identical state.
	count := 1
	for count < m.cfg.GroupClean {
		if _, ok := m.dirtyIdleFrame(start - 1); !ok {
			break
		}
		start--
		count++
	}
	frames = dst[:0]
	for id := start; id < pid; id++ {
		idx, _ := m.dirtyIdleFrame(id)
		frames = append(frames, idx)
	}
	frames = append(frames, seed)
	// Extend forward.
	next := pid + 1
	for len(frames) < m.cfg.GroupClean {
		idx, ok := m.dirtyIdleFrame(next)
		if !ok {
			break
		}
		frames = append(frames, idx)
		next++
	}
	return start, frames
}

// dirtyIdleFrame returns the frame caching pid if it is valid, dirty and
// idle.
func (m *Manager) dirtyIdleFrame(pid page.ID) (int, bool) {
	idx, ok := m.lookup(pid)
	if !ok {
		return 0, false
	}
	rec := &m.frames[idx]
	if !rec.has(fValid) || !rec.has(fDirty) || rec.io > 0 {
		return 0, false
	}
	return idx, true
}

// cleanScratch is the per-call working state of cleanOnce, pooled on the
// manager. Each concurrent cleaning call (background cleaner, FlushDirty)
// takes its own instance for the duration of its device transfers.
type cleanScratch struct {
	frames []int
	lsn    []uint64
	pid    []page.ID
	bufs   [][]byte
	rvec   [][]byte // 1-element vector reused across the per-frame SSD reads
}

func (m *Manager) putScratch(sc *cleanScratch) {
	for i := range sc.bufs {
		m.bufs.Put(sc.bufs[i])
		sc.bufs[i] = nil
	}
	sc.bufs = sc.bufs[:0]
	for i := range sc.rvec {
		sc.rvec[i] = nil
	}
	sc.rvec = sc.rvec[:0]
	sc.frames = sc.frames[:0]
	sc.lsn = sc.lsn[:0]
	sc.pid = sc.pid[:0]
	m.scratch.Put(sc)
}

// cleanOnce performs one cleaning cycle: pick the oldest dirty page, gather
// its contiguous dirty neighbours, read them from the SSD (pages cannot
// move device-to-device directly, §2.4), and write the run to disk with a
// single I/O. Returns false when there was nothing cleanable.
func (m *Manager) cleanOnce(p *sim.Proc) bool {
	seed := m.oldestDirty()
	if seed < 0 || m.frames[seed].io > 0 {
		return false
	}
	sc := m.scratch.Get()
	defer m.putScratch(sc)
	start, frames := m.gatherRun(seed, sc.frames)
	sc.frames = frames
	// Pin every frame in the run before the first device operation so no
	// concurrent path reclaims or re-gathers them. Record each frame's
	// version: a page re-admitted (with a newer LSN) into a pinned frame
	// while the clean is in flight must stay dirty afterwards.
	pinnedLSN := sc.lsn[:0]
	pinnedPID := sc.pid[:0]
	for _, idx := range frames {
		m.frames[idx].io++
		pinnedLSN = append(pinnedLSN, m.frames[idx].lsn)
		pinnedPID = append(pinnedPID, m.frames[idx].pid)
	}
	sc.lsn, sc.pid = pinnedLSN, pinnedPID
	bufs := sc.bufs[:0]
	for range frames {
		bufs = append(bufs, m.bufs.Get())
	}
	sc.bufs = bufs
	readErr := false
	for i, idx := range frames {
		sc.rvec = append(sc.rvec[:0], bufs[i])
		if err := device.Read(p, m.dev, device.PageNum(idx), sc.rvec); err != nil {
			m.noteDeviceErr(err)
			readErr = true
			break
		}
	}
	// Verify every frame before the bytes can reach the disk: a decayed
	// dirty frame must never overwrite the (stale but intact) disk copy.
	// Frames up to the first corrupt one form the writable prefix; corrupt
	// frames are condemned and their pages routed to WAL reconstruction.
	good := len(frames)
	var corruptPIDs []page.ID
	if !readErr {
		for i, idx := range frames {
			err := m.verifyFrameBuf(bufs[i], idx, pinnedPID[i], pinnedLSN[i])
			if err == nil {
				continue
			}
			if i < good {
				good = i
			}
			m.stats.CorruptDirty++
			m.noteCorrupt(idx)
			corruptPIDs = append(corruptPIDs, pinnedPID[i])
		}
		bufs = bufs[:good]
	}
	// Crash point: the dirty run has been read off the SSD but not yet
	// written to disk — the SSD still holds the only up-to-date copies. No
	// state has been mutated; unwind the pins and stop the cleaner so the
	// driver can crash the engine with the pages still uniquely dirty.
	crashed := false
	if !readErr && m.cfg.Faults.At(fault.SiteMidLazyClean) {
		crashed = true
		m.cleanerStop = true
	}
	if !readErr && !crashed && good > 0 {
		err := p.Await(func(t *sim.Task, done func(error)) { m.disk.WriteEncodedTask(t, start, bufs, done) })
		if err != nil {
			readErr = true
		}
	}
	for i, idx := range frames {
		rec := &m.frames[idx]
		rec.io--
		if !readErr && !crashed && i < good && rec.has(fOccupied) && rec.has(fDirty) &&
			rec.pid == pinnedPID[i] && rec.lsn == pinnedLSN[i] {
			rec.flags &^= fDirty
			m.dirtyCount--
			s := m.frameShard(idx)
			s.dirty.remove(idx)
			if rec.has(fValid) {
				s.clean.touch(idx)
			}
		}
		m.frameIdle(idx)
	}
	// Reconstruct the condemned pages now that their frames are unpinned:
	// the WAL holds their latest committed images (invariants I1/I2).
	for _, pid := range corruptPIDs {
		if m.repair != nil {
			if err := m.repair.RepairDirtyPage(p, pid); err == nil {
				m.stats.CorruptRepaired++
			}
		}
	}
	if readErr || crashed {
		return false
	}
	m.stats.CleanerPages += int64(good)
	if good > 0 {
		m.stats.CleanerWrites++
	}
	return good > 0 || len(corruptPIDs) > 0
}

// verifyFrameBuf decodes a frame image read back during cleaning and
// cross-checks it against the identity pinned when the run was gathered.
// Returns nil when the bytes are fit to write to disk. A stored LSN newer
// than the pinned one is a racing re-admission, not corruption; an older
// one means the slot holds stale bytes (a misdirected write's victim).
func (m *Manager) verifyFrameBuf(buf []byte, idx int, pid page.ID, lsn uint64) error {
	var got page.Page
	if err := page.DecodeAs(buf, pid, "ssd", int64(idx), &got); err != nil {
		return err
	}
	if !m.frames[idx].has(fRestored) && got.LSN < lsn {
		return &page.ChecksumError{ID: pid, Device: "ssd", Slot: int64(idx), Reason: "lsn", Got: got.LSN, Want: lsn}
	}
	return nil
}

// FlushDirty copies every dirty SSD page to disk, as LC's modified sharp
// checkpoint requires (§3.2). The count of pages flushed is recorded in
// Stats.CheckpointPgs.
func (m *Manager) FlushDirty(p *sim.Proc) error {
	before := m.stats.CleanerPages
	for m.dirtyCount > 0 {
		if m.lost {
			return device.ErrLost
		}
		if !m.cleanOnce(p) {
			// The remaining dirty frames are pinned by in-flight
			// transfers (typically the background cleaner's own run).
			// Sleep — never spin at the same instant, which would freeze
			// the virtual clock and livelock the simulation — so those
			// transfers can complete, then retry.
			p.Sleep(time.Millisecond)
			if m.dirtyCount > 0 && m.oldestDirty() < 0 {
				break
			}
		}
	}
	m.stats.CheckpointPgs += m.stats.CleanerPages - before
	return nil
}
