package ssd

import (
	"fmt"

	"turbobp/internal/page"
)

// CheckInvariants walks the manager's five data structures and verifies
// their mutual consistency. It is exercised by the randomized property
// tests and is cheap enough to call inside long-running integration tests.
//
// Invariants checked:
//
//  1. Frame accounting: free + occupied frames == total frames, and the
//     occupied counter matches the per-frame flags.
//  2. Hash-table bijection: every table entry points at an occupied frame
//     with the same page id, in the page's shard; every occupied frame is
//     in the table.
//  3. Free-list validity: free frames are unoccupied and appear exactly
//     once across all shards.
//  4. Heap membership (CW/DW/LC): every idle clean valid frame is in its
//     shard's clean heap, every dirty frame is in the dirty heap, and the
//     heaps contain nothing else.
//  5. Dirty accounting: the dirty counter equals the number of dirty
//     frames; non-LC designs have no dirty frames.
//  6. Frame heaps: every slot of a shard's clean and dirty heaps holds a
//     frame of that shard whose record names the slot, no frame orders
//     before its parent under its record's (prev, last), and no record
//     names a slot that does not hold it. A record whose history changed
//     without a re-order breaks the order.
func (m *Manager) CheckInvariants() error {
	if !m.Enabled() {
		return nil
	}
	heaped, named := 0, 0 // frame-heap slots; records that name a slot
	for si := range m.shards {
		s := &m.shards[si]
		if err := m.checkHeap(si, "dirty", &s.dirty); err != nil {
			return err
		}
		heaped += len(s.dirty.at)
		if err := m.checkHeap(si, "clean", &s.clean); err != nil {
			return err
		}
		heaped += len(s.clean.at)
	}
	freeSeen := make(map[int]int)
	freeCount := 0
	for si := range m.shards {
		s := &m.shards[si]
		for _, f := range s.free {
			idx := int(f)
			if idx < 0 || idx >= len(m.frames) {
				return fmt.Errorf("ssd: shard %d free list has frame %d out of range", si, idx)
			}
			freeSeen[idx]++
			if freeSeen[idx] > 1 {
				return fmt.Errorf("ssd: frame %d appears %d times in free lists", idx, freeSeen[idx])
			}
			rec := &m.frames[idx]
			if rec.has(fOccupied) {
				return fmt.Errorf("ssd: occupied frame %d (page %d) on the free list", idx, rec.pid)
			}
			if home := idx % len(m.shards); home != si {
				return fmt.Errorf("ssd: frame %d on shard %d's free list, home is %d", idx, si, home)
			}
			freeCount++
		}
	}
	for pid, v := range m.dir {
		if v == 0 {
			continue
		}
		idx := int(v) - 1
		if idx >= len(m.frames) {
			return fmt.Errorf("ssd: table entry %d -> frame %d out of range", pid, idx)
		}
		rec := &m.frames[idx]
		if !rec.has(fOccupied) {
			return fmt.Errorf("ssd: table entry %d -> unoccupied frame %d", pid, idx)
		}
		if rec.pid != page.ID(pid) {
			return fmt.Errorf("ssd: table entry %d -> frame %d holding page %d", pid, idx, rec.pid)
		}
		if si, home := m.shardOf(rec.pid).num, idx%len(m.shards); home != si {
			return fmt.Errorf("ssd: page %d hashes to shard %d, its frame's home is %d", pid, si, home)
		}
	}

	occupied, dirty := 0, 0
	for idx := range m.frames {
		rec := &m.frames[idx]
		if rec.pos != 0 {
			named++
		}
		if !rec.has(fOccupied) {
			if rec.has(fRetired) {
				if freeSeen[idx] > 0 {
					return fmt.Errorf("ssd: retired frame %d on a free list", idx)
				}
				continue // retired slots sit out of service permanently
			}
			if freeSeen[idx] == 0 && rec.io == 0 {
				return fmt.Errorf("ssd: idle unoccupied frame %d not on any free list", idx)
			}
			continue
		}
		occupied++
		if rec.has(fDirty) {
			dirty++
		}
		if got, ok := m.lookup(rec.pid); !ok || got != idx {
			return fmt.Errorf("ssd: occupied frame %d (page %d) missing from the table", idx, rec.pid)
		}
		s := m.frameShard(idx)
		if m.cfg.Design == TAC {
			continue // TAC's lazy heap may legitimately hold stale entries
		}
		inClean := s.clean.contains(idx)
		inDirty := s.dirty.contains(idx)
		switch {
		case rec.has(fDirty) && !inDirty:
			return fmt.Errorf("ssd: dirty frame %d not in the dirty heap", idx)
		case rec.has(fDirty) && inClean:
			return fmt.Errorf("ssd: dirty frame %d also in the clean heap", idx)
		case !rec.has(fDirty) && rec.has(fValid) && rec.io == 0 && !inClean:
			return fmt.Errorf("ssd: idle clean frame %d not in the clean heap", idx)
		case !rec.has(fDirty) && inDirty:
			return fmt.Errorf("ssd: clean frame %d in the dirty heap", idx)
		}
	}
	if named != heaped {
		return fmt.Errorf("ssd: %d frame records name a heap slot, the frame heaps hold %d", named, heaped)
	}
	if occupied != m.occupied {
		return fmt.Errorf("ssd: occupied counter %d, actual %d", m.occupied, occupied)
	}
	if dirty != m.dirtyCount {
		return fmt.Errorf("ssd: dirty counter %d, actual %d", m.dirtyCount, dirty)
	}
	if m.cfg.Design != LC && dirty != 0 {
		return fmt.Errorf("ssd: %d dirty frames under %v (only LC caches dirty pages)", dirty, m.cfg.Design)
	}
	if freeCount+occupied != len(m.frames) {
		// Frames mid-transfer (io > 0) that were invalidated are neither
		// free nor occupied yet; retired slots have left service for good.
		pending, retired := 0, 0
		for idx := range m.frames {
			if m.frames[idx].has(fOccupied) || freeSeen[idx] > 0 {
				continue
			}
			if m.frames[idx].has(fRetired) {
				retired++
			} else {
				pending++
			}
		}
		if freeCount+occupied+pending+retired != len(m.frames) {
			return fmt.Errorf("ssd: %d free + %d occupied + %d pending + %d retired != %d frames",
				freeCount, occupied, pending, retired, len(m.frames))
		}
	}
	return nil
}

// checkHeap checks invariant 6 for shard si's frame heap h.
func (m *Manager) checkHeap(si int, name string, h *frameHeap) error {
	for p, f := range h.at {
		idx := int(f)
		if idx < 0 || idx >= len(m.frames) || idx%len(m.shards) != si {
			return fmt.Errorf("ssd: shard %d's %s heap holds frame %d of another shard", si, name, idx)
		}
		if got := int(m.frames[idx].pos) - 1; got != p {
			return fmt.Errorf("ssd: frame %d is in slot %d of shard %d's %s heap, its record names slot %d", idx, p, si, name, got)
		}
		if p > 0 && h.Less(p, (p-1)/2) {
			return fmt.Errorf("ssd: frame %d orders before its parent %d in shard %d's %s heap", idx, h.at[(p-1)/2], si, name)
		}
	}
	return nil
}
