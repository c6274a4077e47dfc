package bufpool

import "time"

// never is the penultimate-access time of a page referenced once; it sorts
// before every real time, so such pages are the preferred victims.
const never = time.Duration(-1) << 32

// lru2Heap is the pool's LRU-2 victim order (O'Neil, O'Neil and Weikum,
// SIGMOD 1993) under LRU2: a min-heap of frame indices over the
// frame table, the order the SSD tier's frameHeap keeps over its own. A
// page's last two accesses live once, in its Frame; the heap holds only
// indices, ordered by the (prev, last) snapshot each member's frame
// recorded when it last settled in the heap, then by page id.
//
// The heap is lazy, so that a hit costs O(1): touch updates only the
// frame's current (prev, last) and leaves its snapshot stale. pop
// refreshes a stale root in place and sifts it down until the root is
// current, and only then removes it. That yields the true minimum because
// a touch never lowers a frame's (prev, last): a later access shifts
// (prev, last) to (last, at) with at ≥ last ≥ prev, and a late one (a
// striped pool's buffered read, replayed after a newer serialized access)
// only raises prev (Frame.touch). A stale member can therefore only sink,
// and a current root is below every current history. The page-id
// tie-break makes the order total, so the victim does not depend on the
// heap's arrangement.
type lru2Heap struct {
	frames []Frame // the pool's frame table
	at     []int32 // the heap of frame indices; at[0] is the next root to validate
}

// less reports whether frame a sorts before frame b by their heap
// snapshots.
func (h *lru2Heap) less(a, b int32) bool {
	fa, fb := &h.frames[a], &h.frames[b]
	if fa.hprev != fb.hprev {
		return fa.hprev < fb.hprev
	}
	if fa.hlast != fb.hlast {
		return fa.hlast < fb.hlast
	}
	return fa.Pg.ID < fb.Pg.ID
}

// up sifts the member at position j toward the root.
func (h *lru2Heap) up(j int) {
	at := h.at
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.less(at[j], at[i]) {
			break
		}
		at[i], at[j] = at[j], at[i]
		j = i
	}
}

// down sifts the member at position i toward the leaves.
func (h *lru2Heap) down(i int) {
	at := h.at
	n := len(at)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(at[j2], at[j]) {
			j = j2
		}
		if !h.less(at[j], at[i]) {
			break
		}
		at[i], at[j] = at[j], at[i]
		i = j
	}
}

// push adds frame idx, first referenced at now.
func (h *lru2Heap) push(idx int32, now time.Duration) {
	f := &h.frames[idx]
	f.last, f.prev = now, never
	f.hlast, f.hprev = f.last, f.prev
	h.at = append(h.at, idx)
	h.up(len(h.at) - 1)
}

// pop removes and returns the frame with the smallest (prev, last, page
// id), or -1 if the heap is empty.
func (h *lru2Heap) pop() int32 {
	for len(h.at) > 0 {
		idx := h.at[0]
		f := &h.frames[idx]
		if f.hlast != f.last || f.hprev != f.prev {
			f.hlast, f.hprev = f.last, f.prev
			h.down(0)
			continue
		}
		n := len(h.at) - 1
		h.at[0] = h.at[n]
		h.at = h.at[:n]
		if n > 0 {
			h.down(0)
		}
		return idx
	}
	return -1
}

// touch records an access at at in f's history. Accesses normally arrive
// in time order and shift the history; one older than the last (a striped
// pool's buffered read, replayed after a newer serialized access) can only
// be the penultimate, if it is newer than the one recorded. Either way
// (prev, last) never decreases, which is what keeps lru2Heap's lazy
// snapshots valid.
func (f *Frame) touch(at time.Duration) {
	switch {
	case at >= f.last:
		f.prev, f.last = f.last, at
	case at > f.prev:
		f.prev = at
	}
}
