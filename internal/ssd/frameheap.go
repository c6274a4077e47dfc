package ssd

import (
	"container/heap"
	"fmt"

	"turbobp/internal/page"
	"turbobp/internal/policy"
)

// frameHeap is an LRU-2 min-heap over one shard's frames: the paper's
// clean and dirty heaps over the SSD buffer table (§3.1). It holds frame
// indices only. A frame's order is its own record's (prev, last), then its
// index, and its heap position is the record's pos, so a frame's access
// history is stored once, in the frame table. Whoever changes a member's
// history calls touch to re-order it; CheckInvariants catches a record
// that changed without one.
//
// A frame is in at most one of its shard's two heaps (CheckInvariants,
// item 4), so one pos per record serves both; a heap owns a frame only if
// the slot that pos names holds that frame.
type frameHeap struct {
	frames []frameRec // the manager's frame table
	at     []int32    // the heap of frame indices; at[0] is the victim
}

// Len returns the number of frames in the heap. With Less, Swap, Push and
// Pop it makes frameHeap a heap.Interface; members enter by append and
// heap.Fix and Pop returns nothing, so no frame index is boxed on a hot
// path.
func (h *frameHeap) Len() int { return len(h.at) }

// Less reports whether the frame at heap position i is a better victim
// than the one at j. The frame-index tie-break makes this a total order,
// so the victim sequence does not depend on the heap's arrangement.
func (h *frameHeap) Less(i, j int) bool {
	a, b := h.at[i], h.at[j]
	ra, rb := &h.frames[a], &h.frames[b]
	if ra.prev != rb.prev {
		return ra.prev < rb.prev
	}
	if ra.last != rb.last {
		return ra.last < rb.last
	}
	return a < b
}

// Swap exchanges heap positions i and j and records the frames' new
// positions.
func (h *frameHeap) Swap(i, j int) {
	h.at[i], h.at[j] = h.at[j], h.at[i]
	h.frames[h.at[i]].pos = int32(i) + 1
	h.frames[h.at[j]].pos = int32(j) + 1
}

// Push appends x, an int32 frame index, at the end.
func (h *frameHeap) Push(x any) { h.add(int(x.(int32))) }

// Pop removes the last frame; it returns nil, as nothing uses the result.
func (h *frameHeap) Pop() any {
	n := len(h.at) - 1
	h.frames[h.at[n]].pos = 0
	h.at = h.at[:n]
	return nil
}

// add appends frame idx at the end of the heap, out of order.
func (h *frameHeap) add(idx int) {
	h.at = append(h.at, int32(idx))
	h.frames[idx].pos = int32(len(h.at))
}

// contains reports whether frame idx is in this heap.
func (h *frameHeap) contains(idx int) bool {
	p := int(h.frames[idx].pos) - 1
	return p >= 0 && p < len(h.at) && int(h.at[p]) == idx
}

// touch inserts frame idx, or re-orders it after its history changed.
func (h *frameHeap) touch(idx int) {
	if !h.contains(idx) {
		h.add(idx)
	}
	heap.Fix(h, int(h.frames[idx].pos)-1)
}

// remove drops frame idx; it is a no-op if idx is not in this heap.
func (h *frameHeap) remove(idx int) {
	if h.contains(idx) {
		heap.Remove(h, int(h.frames[idx].pos)-1)
	}
}

// victim returns the heap's LRU-2 victim without removing it.
func (h *frameHeap) victim() (int, bool) {
	if len(h.at) == 0 {
		return -1, false
	}
	return int(h.at[0]), true
}

// pop removes and returns the victim.
func (h *frameHeap) pop() (int, bool) {
	idx, ok := h.victim()
	if ok {
		heap.Remove(h, 0)
	}
	return idx, ok
}

// stats: LRU-2 counts nothing.
func (h *frameHeap) stats() policy.Stats { return policy.Stats{} }

// cleanSet is a shard's clean heap: its idle clean valid frames in
// replacement order, plus the policy's counters. Under LRU-2 it is a
// frameHeap; under CFLRU it is a pidSet.
type cleanSet interface {
	touch(idx int)         // insert frame idx, or re-order it after its history changed
	remove(idx int)        // drop frame idx; a no-op if absent
	pop() (int, bool)      // remove and return the victim frame
	contains(idx int) bool // frame idx is in the set
	stats() policy.Stats   // the policy's decision counters
}

// pidSet is the clean set under CFLRU. Every member is clean, so the list
// gets no dirty callback and is plain LRU. It is keyed by page id, as the
// pool's is: pop resolves a victim through the SSD table, so a key the
// table no longer maps is caught as an invariant breach.
type pidSet struct {
	p *policy.CFLRUList
	m *Manager
}

func (s pidSet) touch(idx int) {
	rec := &s.m.frames[idx]
	s.p.TouchHistory(int64(rec.pid), rec.last, rec.prev)
}

func (s pidSet) remove(idx int) { s.p.Remove(int64(s.m.frames[idx].pid)) }

// pop removes the victim and returns its frame. A victim whose page the
// SSD table does not map is an invariant breach: freeFrame, the one path
// that unmaps a page, removes its frame from the clean set too.
func (s pidSet) pop() (int, bool) {
	key, ok := s.p.Pop()
	if !ok {
		return -1, false
	}
	idx, ok := s.m.lookup(page.ID(key))
	if !ok {
		panic(fmt.Sprintf("ssd: clean-set victim %d not in table", key))
	}
	return idx, true
}

func (s pidSet) contains(idx int) bool { return s.p.Contains(int64(s.m.frames[idx].pid)) }

func (s pidSet) stats() policy.Stats { return s.p.Stats() }
