package ssd

import (
	"container/heap"

	"turbobp/internal/page"
)

// This file implements Temperature-Aware Caching (TAC, Canim et al., VLDB
// 2010) as re-implemented and compared against in §2.5 and §4 of the paper.
// TAC differs from CW/DW/LC in three ways:
//
//   - Admission happens immediately after a page is read from disk (an
//     asynchronous write to the SSD), not at memory-pool eviction time.
//   - Admission and replacement are governed by per-extent "temperatures":
//     every buffer-pool miss adds the milliseconds an SSD hit would have
//     saved to the 32-page extent containing the page.
//   - Invalidation is logical: when the memory copy is dirtied the SSD
//     frame is only marked invalid, wasting its space until temperature
//     replacement happens to evict it.

// tacEntry is one replacement-heap entry. temp is the extent temperature at
// push time; entries with stale temperatures or stale generations are fixed
// or discarded lazily at pop time.
type tacEntry struct {
	idx  int
	gen  uint32
	temp float64
}

// tacHeap is a min-heap on temperature: the root is the coldest SSD page.
// Its five methods are heap.Interface, for container/heap.
type tacHeap []tacEntry

// Len returns the number of entries.
func (h tacHeap) Len() int { return len(h) }

// Less orders entries by temperature, coldest first.
func (h tacHeap) Less(i, j int) bool { return h[i].temp < h[j].temp }

// Swap exchanges entries i and j.
func (h tacHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push appends x, a tacEntry, at the end.
func (h *tacHeap) Push(x interface{}) { *h = append(*h, x.(tacEntry)) }

// Pop removes and returns the last entry.
func (h *tacHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// ExtentTemperature returns the current temperature of pid's extent.
func (m *Manager) ExtentTemperature(pid page.ID) float64 {
	return m.temps[int(pid)/extentPages]
}

// TACNoteMiss records a memory-pool miss for temperature tracking: the
// extent gains the milliseconds that an SSD hit would have saved.
func (m *Manager) TACNoteMiss(pid page.ID, random bool) {
	if m.cfg.Design != TAC || !m.Enabled() {
		return
	}
	saved := m.randSavedMs
	if !random {
		saved = m.seqSavedMs
	}
	m.temps[int(pid)/extentPages] += saved
}

// tacAllocFrame claims a frame for pid: the free list first, then — when
// the SSD is full — the coldest frame, and only if pid's extent is hotter.
func (m *Manager) tacAllocFrame(pid page.ID) int {
	s := m.shardOf(pid)
	if len(s.free) == 0 {
		victim := m.popTacVictim(s)
		if victim < 0 {
			return -1
		}
		vrec := &m.frames[victim]
		if m.ExtentTemperature(pid) <= m.ExtentTemperature(vrec.pid) {
			m.pushTac(victim) // not hot enough; victim stays
			return -1
		}
		m.stats.Evictions++
		m.freeFrame(victim)
	}
	idx := int(s.free[len(s.free)-1])
	s.free = s.free[:len(s.free)-1]
	rec := &m.frames[idx]
	rec.pid = pid
	rec.flags |= fOccupied | fValid
	rec.last = m.env.Now()
	rec.prev = never
	m.dir[pid] = int32(idx + 1)
	m.occupied++
	m.pushTac(idx)
	return idx
}

// pushTac (re)inserts frame idx into its shard's temperature heap with the
// extent's current temperature.
func (m *Manager) pushTac(idx int) {
	rec := &m.frames[idx]
	s := m.frameShard(idx)
	heap.Push(&s.tac, tacEntry{idx: idx, gen: rec.gen, temp: m.ExtentTemperature(rec.pid)})
}

// popTacVictim removes and returns the coldest idle frame of the shard,
// fixing stale heap entries lazily. Returns -1 if nothing is reclaimable.
// The caller must either free the frame or pushTac it back.
func (m *Manager) popTacVictim(s *shard) int {
	var busy []tacEntry
	defer func() {
		for _, b := range busy {
			heap.Push(&s.tac, b)
		}
	}()
	for len(s.tac) > 0 {
		e := heap.Pop(&s.tac).(tacEntry)
		rec := &m.frames[e.idx]
		if !rec.has(fOccupied) || rec.gen != e.gen {
			continue // stale: frame was freed (and possibly reused)
		}
		if cur := m.ExtentTemperature(rec.pid); cur != e.temp {
			heap.Push(&s.tac, tacEntry{idx: e.idx, gen: e.gen, temp: cur})
			continue
		}
		if rec.io > 0 {
			busy = append(busy, e)
			continue
		}
		return e.idx
	}
	return -1
}
