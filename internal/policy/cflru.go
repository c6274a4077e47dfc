package policy

import "time"

// CFLRUList is clean-first LRU (Park et al.): a single recency list whose
// eviction scan walks a window at the cold end and prefers the first
// clean entry, deferring dirty pages so their write-back (WAL flush on
// the pool tier, SSD/disk write on eviction) is delayed and batched.
// Without a dirty callback it is plain LRU. Keys are page ids.
//
// The list orders entries by call order alone: Touch moves its key to
// the MRU end whatever the time it carries, so the victim sequence is a
// function of the sequence of calls, never of map iteration.
type CFLRUList struct {
	window int // cold-end scan depth
	root   entry
	n      int
	table  map[int64]*entry
	free   *entry
	dirty  func(key int64) bool
	stats  Stats
}

// entry is one tracked key on the circular doubly-linked list through
// root: root.next is the MRU end, root.prev the LRU end. (last, old)
// carry the access history History reports.
type entry struct {
	key        int64
	prev, next *entry
	last, old  time.Duration
}

// NewCFLRU returns an empty list sized for capacity entries: the
// clean-first window is a quarter of it. dirty reports whether a key's
// page is dirty; a nil dirty makes the list plain LRU.
func NewCFLRU(capacity int, dirty func(key int64) bool) *CFLRUList {
	w := max(capacity/4, 1)
	c := &CFLRUList{window: w, table: make(map[int64]*entry), dirty: dirty}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// scan walks up to window entries from the LRU end and returns the
// first clean one, along with whether any older dirty entry was passed
// over. Falls back to the LRU entry when the window is all dirty.
func (c *CFLRUList) scan() (e *entry, skippedDirty bool) {
	if c.n == 0 {
		return nil, false
	}
	tail := c.root.prev
	if c.dirty == nil {
		return tail, false
	}
	cur := tail
	for i := 0; i < c.window && cur != &c.root; i++ {
		if !c.dirty(cur.key) {
			return cur, cur != tail
		}
		cur = cur.prev
	}
	return tail, false
}

// Touch records an access at now and moves key to the MRU end,
// inserting it if absent.
func (c *CFLRUList) Touch(key int64, now time.Duration) {
	e := c.table[key]
	if e == nil {
		e = c.alloc(key)
		e.last, e.old = now, never
		c.table[key] = e
		c.pushFront(e)
		return
	}
	c.unlink(e)
	e.old = e.last
	e.last = now
	c.pushFront(e)
}

// TouchHistory (re-)inserts key at the MRU end with an explicit (last,
// prev) access history, as when the SSD tier carries a frame's history
// into its clean set.
func (c *CFLRUList) TouchHistory(key int64, last, prev time.Duration) {
	e := c.table[key]
	if e == nil {
		e = c.alloc(key)
		c.table[key] = e
	} else {
		c.unlink(e)
	}
	e.last, e.old = last, prev
	c.pushFront(e)
}

// Remove forgets key; it is a no-op if key is absent.
func (c *CFLRUList) Remove(key int64) {
	e := c.table[key]
	if e == nil {
		return
	}
	c.unlink(e)
	c.release(e)
}

// Pop removes and returns the clean-first victim, counting evictions
// that passed over an older dirty entry.
func (c *CFLRUList) Pop() (int64, bool) {
	e, skipped := c.scan()
	if e == nil {
		return 0, false
	}
	if skipped {
		c.stats.CleanFirstEvict++
	}
	c.unlink(e)
	key := e.key
	c.release(e)
	return key, true
}

// Len reports the tracked entry count.
func (c *CFLRUList) Len() int { return c.n }

// Contains reports whether key is tracked.
func (c *CFLRUList) Contains(key int64) bool { return c.table[key] != nil }

// History returns the recorded (last, prev) access times for key.
func (c *CFLRUList) History(key int64) (last, prev time.Duration, seen bool) {
	e := c.table[key]
	if e == nil {
		return 0, 0, false
	}
	return e.last, e.old, true
}

// Stats reports clean-first eviction counts.
func (c *CFLRUList) Stats() Stats { return c.stats }

// pushFront inserts e at the MRU end.
func (c *CFLRUList) pushFront(e *entry) {
	e.prev = &c.root
	e.next = c.root.next
	e.prev.next = e
	e.next.prev = e
	c.n++
}

// unlink removes e from the list.
func (c *CFLRUList) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	c.n--
}

// alloc takes an entry from the free list, or makes one.
func (c *CFLRUList) alloc(key int64) *entry {
	e := c.free
	if e != nil {
		c.free = e.next
		e.next = nil
	} else {
		e = &entry{}
	}
	e.key = key
	return e
}

// release forgets e's key and returns e to the free list.
func (c *CFLRUList) release(e *entry) {
	delete(c.table, e.key)
	e.next = c.free
	c.free = e
}
