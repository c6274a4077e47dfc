// LRU-2 page replacement (O'Neil, O'Neil and Weikum, SIGMOD 1993), the
// default policy and the one both the paper's SSD manager and this
// repository's memory buffer pool use. It is also the SSD tier's dirty heap.
//
// LRU-2 evicts the entry whose second-most-recent access is oldest. Entries
// referenced only once have an infinite backward 2-distance and are
// preferred victims, ordered among themselves by their single access time.
//
// Everything is flat: entries live in a slot arena (recycled through a free
// list, so the steady state allocates nothing), the priority heap is a slice
// of snapshot nodes, and the key index is a dense slice over the key bound
// the owner gives NewLRU2 (keys are page ids or frame numbers).
//
// The heap is lazy, in the style of the SSD manager's TAC heap: a node
// records the (prev, last) pair its entry had when pushed, and Touch only
// updates the entry, leaving the node stale. Victim and Pop revalidate the
// top — refreshing stale nodes in place and discarding nodes orphaned by
// Remove (detected by a per-slot generation counter) — until the minimum is
// genuine. This makes Touch O(1) instead of O(log n), which is what the
// buffer pool's hit path does on every access. Laziness cannot change any
// victim sequence: the ordering (prev, last, key) is a total order, an
// entry's (prev, last) only grows under Touch, so a validated top is the
// unique true minimum.

package policy

import "time"

// never is the penultimate-access value of entries seen only once; it sorts
// before every real timestamp, making such entries preferred victims. The
// list-based policies use the same encoding for "no previous access", so
// History round-trips between LRU-2 and the adaptive policies.
const never = time.Duration(-1) << 32

// lru2Entry is one tracked key, stored in the cache's slot arena.
type lru2Entry struct {
	key  int64
	last time.Duration // most recent access
	prev time.Duration // access before that, or never
	gen  uint32        // bumped on release; orphans outstanding heap nodes
}

// lru2Node is one heap element: a slot plus the snapshot it was ordered by.
type lru2Node struct {
	slot int32
	gen  uint32
	key  int64 // snapshot copies so comparisons never read a reused slot
	last time.Duration
	prev time.Duration
}

// LRU2Cache tracks LRU-2 history for a set of keys; it is the LRU2 Policy.
// The zero value is not usable; call NewLRU2.
type LRU2Cache struct {
	arena []lru2Entry
	free  []int32    // recycled arena slots; steady-state insert-after-evict reuses them
	heap  []lru2Node // lazy min-heap of snapshots
	dead  int        // orphaned nodes still in the heap; bounded by compact
	index []int32    // key -> arena slot + 1; 0 = absent
}

// NewLRU2 returns an empty cache for keys in [0, keys).
func NewLRU2(keys int) *LRU2Cache {
	return &LRU2Cache{index: make([]int32, keys)}
}

// less orders the heap by snapshot: the smaller node surfaces first. The
// key tiebreak makes this a total order, so the validated minimum is unique
// and independent of heap arrangement.
func (a *lru2Node) less(b *lru2Node) bool {
	if a.prev != b.prev {
		return a.prev < b.prev
	}
	if a.last != b.last {
		return a.last < b.last
	}
	return a.key < b.key
}

// alloc returns a blank arena slot, reusing a recycled one when available.
func (c *LRU2Cache) alloc() int32 {
	if n := len(c.free); n > 0 {
		slot := c.free[n-1]
		c.free = c.free[:n-1]
		return slot
	}
	c.arena = append(c.arena, lru2Entry{})
	return int32(len(c.arena) - 1)
}

// release retires a slot: out of the index, onto the free list, and any
// node still in the heap orphaned by the generation bump.
func (c *LRU2Cache) release(slot int32) {
	e := &c.arena[slot]
	c.index[e.key] = 0
	*e = lru2Entry{gen: e.gen + 1}
	c.free = append(c.free, slot)
}

// up sifts the node at position j toward the root.
func (c *LRU2Cache) up(j int) {
	h := c.heap
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h[j].less(&h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down sifts the node at position i toward the leaves.
func (c *LRU2Cache) down(i int) {
	h := c.heap
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].less(&h[j]) {
			j = j2
		}
		if !h[j].less(&h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// push adds a fresh snapshot node for slot.
func (c *LRU2Cache) push(slot int32) {
	if c.dead*2 > len(c.heap) && len(c.heap) >= 64 {
		c.compact()
	}
	e := &c.arena[slot]
	c.heap = append(c.heap, lru2Node{slot: slot, gen: e.gen, key: e.key, last: e.last, prev: e.prev})
	c.up(len(c.heap) - 1)
}

// compact drops orphaned nodes, refreshes stale ones and re-heapifies,
// bounding the heap at twice the live population. Rearranging the heap
// cannot affect any victim order: the comparison is a total order, so the
// validated minimum is arrangement-independent.
func (c *LRU2Cache) compact() {
	h := c.heap[:0]
	for _, n := range c.heap {
		e := &c.arena[n.slot]
		if n.gen != e.gen {
			continue
		}
		n.last, n.prev = e.last, e.prev
		h = append(h, n)
	}
	c.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		c.down(i)
	}
	c.dead = 0
}

// clean revalidates the heap top until it is a live, current node, and
// reports whether one exists. Orphaned nodes (generation mismatch after a
// Remove) are discarded; stale nodes (entry touched since the snapshot) are
// refreshed in place and sifted down — a touched entry only grows, so it
// can only move toward the leaves. Each round removes or freshens a node,
// so the loop's total work is amortized against past Touch and Remove
// calls.
func (c *LRU2Cache) clean() bool {
	for len(c.heap) > 0 {
		t := &c.heap[0]
		e := &c.arena[t.slot]
		if t.gen != e.gen {
			n := len(c.heap) - 1
			c.heap[0] = c.heap[n]
			c.heap = c.heap[:n]
			c.dead--
			if n > 0 {
				c.down(0)
			}
			continue
		}
		if t.last != e.last || t.prev != e.prev {
			t.last, t.prev = e.last, e.prev
			c.down(0)
			continue
		}
		return true
	}
	return false
}

// Len returns the number of tracked keys.
func (c *LRU2Cache) Len() int { return len(c.arena) - len(c.free) }

// Contains reports whether key is tracked.
func (c *LRU2Cache) Contains(key int64) bool { return c.index[key] != 0 }

// Touch records an access to key at time now, inserting it if absent.
func (c *LRU2Cache) Touch(key int64, now time.Duration) {
	if slot := c.index[key] - 1; slot >= 0 {
		e := &c.arena[slot]
		e.prev = e.last
		e.last = now
		return // the heap node is now stale; clean() refreshes it lazily
	}
	c.insert(key, now, never)
}

// TouchHistory inserts (or resets) key with an explicit access history, used
// to re-insert an entry that was temporarily removed without perturbing its
// replacement priority.
func (c *LRU2Cache) TouchHistory(key int64, last, prev time.Duration) {
	if slot := c.index[key] - 1; slot >= 0 {
		e := &c.arena[slot]
		if prev > e.prev || (prev == e.prev && last >= e.last) {
			// The history moves forward (or stays put) in the heap's
			// (prev, last) order — the same monotonic growth Touch relies
			// on, so the lazy update applies: the node goes stale and
			// clean() refreshes it by sifting down. This is the hot case
			// (the SSD manager touches a frame on every hit).
			e.last, e.prev = last, prev
			return
		}
		// Backward move, which lazy refreshing cannot handle; orphan the
		// old node and push a fresh one.
		e.last, e.prev = last, prev
		e.gen++
		c.dead++
		c.push(slot)
		return
	}
	c.insert(key, last, prev)
}

// insert adds a new key with the given history.
func (c *LRU2Cache) insert(key int64, last, prev time.Duration) {
	slot := c.alloc()
	e := &c.arena[slot]
	e.key, e.last, e.prev = key, last, prev
	c.index[key] = slot + 1
	c.push(slot)
}

// Remove drops key from the cache; it is a no-op if absent.
func (c *LRU2Cache) Remove(key int64) {
	slot := c.index[key] - 1
	if slot < 0 {
		return
	}
	c.release(slot) // the generation bump orphans the heap node
	c.dead++
}

// Victim returns the current LRU-2 victim without removing it.
func (c *LRU2Cache) Victim() (key int64, ok bool) {
	if !c.clean() {
		return 0, false
	}
	return c.heap[0].key, true
}

// Pop removes and returns the current victim.
func (c *LRU2Cache) Pop() (key int64, ok bool) {
	if !c.clean() {
		return 0, false
	}
	t := c.heap[0]
	n := len(c.heap) - 1
	c.heap[0] = c.heap[n]
	c.heap = c.heap[:n]
	if n > 0 {
		c.down(0)
	}
	c.release(t.slot)
	return t.key, true
}

// History returns the last and penultimate access times of key, with seen
// reporting presence. A penultimate of Never() means one access so far.
func (c *LRU2Cache) History(key int64) (last, prev time.Duration, seen bool) {
	slot := c.index[key] - 1
	if slot < 0 {
		return 0, 0, false
	}
	e := &c.arena[slot]
	return e.last, e.prev, true
}

// Never returns the sentinel penultimate-access value of once-referenced
// entries.
func Never() time.Duration { return never }

// Admit always accepts: LRU-2 is eviction-only.
func (c *LRU2Cache) Admit(int64, time.Duration) bool { return true }

// Stats returns zeroes: LRU-2 keeps no decision counters.
func (c *LRU2Cache) Stats() Stats { return Stats{} }
