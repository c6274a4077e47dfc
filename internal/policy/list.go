package policy

import "time"

// entry is one tracked key on an intrusive doubly-linked list. The
// adaptive policies share it: where disambiguates which of a policy's
// lists the entry is on, and (last, old) carry the access history the
// History method reports.
type entry struct {
	key        int64
	where      uint8
	prev, next *entry
	last, old  time.Duration
}

// elist is a circular doubly-linked list with a sentinel. Front is the
// MRU end; back is the LRU end. All ordering decisions in the adaptive
// policies come from these links — never from map iteration — which is
// what keeps them deterministic.
type elist struct {
	root entry
	n    int
}

func (l *elist) init() {
	l.root.prev = &l.root
	l.root.next = &l.root
	l.n = 0
}

// pushFront inserts e at the MRU end.
func (l *elist) pushFront(e *entry) {
	e.prev = &l.root
	e.next = l.root.next
	e.prev.next = e
	e.next.prev = e
	l.n++
}

// back returns the LRU entry, or nil when empty.
func (l *elist) back() *entry {
	if l.n == 0 {
		return nil
	}
	return l.root.prev
}

// unlink removes e from whatever list it is on.
func (l *elist) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	l.n--
}
