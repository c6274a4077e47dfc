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
func (m *Manager) CheckInvariants() error {
	if !m.Enabled() {
		return nil
	}
	freeSeen := make(map[int]int)
	freeCount := 0
	for si := range m.shards {
		s := &m.shards[si]
		for _, idx := range s.free {
			if idx < 0 || idx >= len(m.frames) {
				return fmt.Errorf("ssd: shard %d free list has frame %d out of range", si, idx)
			}
			freeSeen[idx]++
			if freeSeen[idx] > 1 {
				return fmt.Errorf("ssd: frame %d appears %d times in free lists", idx, freeSeen[idx])
			}
			rec := &m.frames[idx]
			if rec.occupied {
				return fmt.Errorf("ssd: occupied frame %d (page %d) on the free list", idx, rec.pid)
			}
			if rec.shard != si {
				return fmt.Errorf("ssd: frame %d on shard %d's free list, home is %d", idx, si, rec.shard)
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
		if !rec.occupied {
			return fmt.Errorf("ssd: table entry %d -> unoccupied frame %d", pid, idx)
		}
		if rec.pid != page.ID(pid) {
			return fmt.Errorf("ssd: table entry %d -> frame %d holding page %d", pid, idx, rec.pid)
		}
		if si := m.shardOf(rec.pid).num; rec.shard != si {
			return fmt.Errorf("ssd: page %d hashes to shard %d, its frame's home is %d", pid, si, rec.shard)
		}
	}

	occupied, dirty := 0, 0
	for idx := range m.frames {
		rec := &m.frames[idx]
		if !rec.occupied {
			if m.retired[idx] {
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
		if rec.dirty {
			dirty++
		}
		if got, ok := m.lookup(rec.pid); !ok || got != idx {
			return fmt.Errorf("ssd: occupied frame %d (page %d) missing from the table", idx, rec.pid)
		}
		s := &m.shards[rec.shard]
		if m.cfg.Design == TAC {
			continue // TAC's lazy heap may legitimately hold stale entries
		}
		inClean := s.clean.Contains(m.cleanKey(idx))
		inDirty := s.dirty.Contains(m.heapKey(idx))
		switch {
		case rec.dirty && !inDirty:
			return fmt.Errorf("ssd: dirty frame %d not in the dirty heap", idx)
		case rec.dirty && inClean:
			return fmt.Errorf("ssd: dirty frame %d also in the clean heap", idx)
		case !rec.dirty && rec.valid && rec.io == 0 && !inClean:
			return fmt.Errorf("ssd: idle clean frame %d not in the clean heap", idx)
		case !rec.dirty && inDirty:
			return fmt.Errorf("ssd: clean frame %d in the dirty heap", idx)
		}
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
			if m.frames[idx].occupied || freeSeen[idx] > 0 {
				continue
			}
			if m.retired[idx] {
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
