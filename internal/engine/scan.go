package engine

import (
	"errors"
	"fmt"
	"time"

	"turbobp/internal/bufpool"
	"turbobp/internal/device"
	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
)

// Scan reads n consecutive pages starting at start, the way a table scan
// would: the first ReadAheadRamp pages are fetched individually (the
// read-ahead mechanism has not triggered yet), after which pages arrive in
// read-ahead batches of up to ReadAhead pages, each batch issued as one
// multi-page disk request with SSD trimming (§3.3.3).
func (e *Engine) Scan(p *sim.Proc, start page.ID, n int) error {
	if n < 0 {
		return fmt.Errorf("%w: negative scan length %d", ErrPageRange, n)
	}
	if n == 0 {
		return nil
	}
	if err := e.checkPage(start); err != nil {
		return err
	}
	if err := e.checkPage(start + page.ID(n) - 1); err != nil {
		return err
	}
	pid := start
	remaining := n
	ramp := e.cfg.ReadAheadRamp
	for remaining > 0 && ramp > 0 {
		if _, err := e.scanPoint(p, pid); err != nil {
			return err
		}
		pid++
		remaining--
		ramp--
	}
	for remaining > 0 {
		batch := e.cfg.ReadAhead
		if batch > remaining {
			batch = remaining
		}
		if err := e.readRun(p, pid, batch); err != nil {
			return err
		}
		pid += page.ID(batch)
		remaining -= batch
	}
	e.stats.ScanPages += int64(n)
	return nil
}

// scanPoint reads one page of a scan before read-ahead has triggered. It is
// a normal random-looking fetch except it is counted as scan work.
func (e *Engine) scanPoint(p *sim.Proc, pid page.ID) (*bufpool.Frame, error) {
	e.chargeCPU(p, e.cfg.CPUPerAccess/8)
	e.stats.Reads++
	if f := e.pool.Lookup(pid, e.env.Now()); f != nil {
		e.stats.PoolHits++
		return f, nil
	}
	return e.fetch(p, pid, false, true)
}

// readRun implements the multi-page I/O optimization: a read-ahead batch of
// count pages from pid. Pages already resident are served from memory.
// Leading and trailing pages whose copies sit in the SSD are trimmed from
// the disk request and read from the SSD; pages in the middle stay in the
// single disk request, except that middle pages with *newer* SSD versions
// are re-read from the SSD afterwards and the stale disk versions dropped.
func (e *Engine) readRun(p *sim.Proc, pid page.ID, count int) error {
	e.chargeCPU(p, e.cfg.CPUPerAccess/8*time.Duration(count))
	// Wait out in-flight dirty evictions of any page in the run: until a
	// writeback lands, the disk holds a stale image and the SSD mapping is
	// unpublished, so both the residency snapshot below and the batch disk
	// read would see the stale state (see Engine.evicting). Re-scan from the
	// start after every wait — a new eviction may start while parked.
	for {
		settled := true
		for i := 0; i < count; i++ {
			if sig := e.evicting[pid+page.ID(i)]; sig != nil {
				sig.Wait(p)
				settled = false
				break
			}
		}
		if settled {
			break
		}
	}
	type slot struct {
		pid     page.ID
		inPool  bool
		inSSD   bool
		dirtera bool // SSD version newer than disk
	}
	slots := make([]slot, count)
	for i := range slots {
		id := pid + page.ID(i)
		slots[i] = slot{
			pid:     id,
			inPool:  e.pool.Peek(id) != nil,
			inSSD:   e.mgr.Contains(id),
			dirtera: e.mgr.IsDirty(id),
		}
	}

	// A slot is "served elsewhere" if resident; leading/trailing SSD pages
	// are trimmed from the disk request.
	lo, hi := 0, count // [lo,hi) remains for the disk request
	for lo < count && (slots[lo].inPool || slots[lo].inSSD) {
		lo++
	}
	for hi > lo && (slots[hi-1].inPool || slots[hi-1].inSSD) {
		hi--
	}

	// Serve the trimmed/resident edges and the middle's resident pages.
	for i := range slots {
		s := &slots[i]
		if lo <= i && i < hi {
			continue // part of the disk run
		}
		if s.inPool {
			e.stats.Reads++
			e.stats.PoolHits++
			e.pool.Lookup(s.pid, e.env.Now())
			continue
		}
		// Trimmed edge: fetch through the normal path (SSD hit expected).
		if _, err := e.fetch(p, s.pid, true, true); err != nil {
			return err
		}
		e.stats.Reads++
	}

	if lo >= hi {
		return nil
	}

	// Claim frames for the whole disk run first (evictions may do I/O),
	// skipping pages that are resident mid-run.
	runLen := hi - lo
	frames := make([]*bufpool.Frame, runLen)
	for i := 0; i < runLen; i++ {
		s := slots[lo+i]
		if s.inPool || e.pool.Peek(s.pid) != nil {
			continue // resident middle page: disk copy will be discarded
		}
		f, err := e.claimFrame(p)
		if err != nil {
			for _, g := range frames {
				if g != nil {
					e.pool.Release(g)
				}
			}
			return err
		}
		frames[i] = f
	}

	// One multi-page disk request for the whole run, into pooled buffers.
	bufs := e.bufs.Vec(runLen)
	defer e.bufs.PutVec(bufs) // decodeInto copies, so nothing aliases them after
	if err := device.Read(p, e.db, device.PageNum(slots[lo].pid), bufs); err != nil {
		for _, f := range frames {
			if f != nil {
				e.pool.Release(f)
			}
		}
		return err
	}

	for i := 0; i < runLen; i++ {
		s := slots[lo+i]
		e.stats.Reads++
		f := frames[i]
		if f == nil {
			// Mid-run resident page: the stale disk bytes are discarded
			// immediately (§3.3.3); the resident copy wins.
			e.stats.PoolHits++
			continue
		}
		e.stats.PoolMisses++
		seqLabel := e.classifier.label(s.pid, true)
		e.mgr.TACNoteMiss(s.pid, !seqLabel)
		if e.evicting[s.pid] != nil {
			// The page went resident and back into a dirty eviction while the
			// run's claims and disk read were in flight: the image just read
			// predates that writeback. Drop it; the next access of the page
			// re-fetches through the eviction guard.
			e.pool.Release(f)
			continue
		}
		if err := e.decodeInto(s.pid, bufs[i], f); err != nil {
			var ce *page.ChecksumError
			if errors.As(err, &ce) {
				// A rotten disk page in the middle of the run: repair it in
				// place — this is where an SSD-resident copy naturally heals
				// HDD corruption — and keep scanning.
				err = e.repairDiskPage(p, s.pid, f, err)
			}
			if err != nil {
				e.pool.Release(f)
				return err
			}
		}
		f.Seq = seqLabel
		e.noteClassification(true, seqLabel)
		e.classifier.noteDiskRead(s.pid)
		got, inserted := e.pool.Insert(f, e.env.Now())
		if !inserted {
			continue
		}
		if s.dirtera || e.mgr.IsDirty(s.pid) {
			// The SSD holds a newer version (LC) — possibly admitted by an
			// eviction that completed while the run was in flight: re-read it
			// and replace the stale disk image (if the copy vanished
			// meanwhile, the disk version stands). A failed read's repair
			// redoes the page's WAL records into the frame just inserted,
			// so the run can continue.
			if _, err := e.mgr.Read(p, s.pid, &got.Pg); err != nil {
				if err := e.repairSSDRead(p, err); err != nil {
					return err
				}
			}
		} else if e.cfg.Design == ssd.TAC {
			e.mgr.TACOnDiskRead(&got.Pg, !seqLabel, e.stillCleanFn(s.pid, got))
		}
	}
	return nil
}
