package sim

import "time"

// This file holds the scheduler's event queue: eventHeap, a binary min-heap
// ordered by (virtual time, sequence). An experiment holds few events at a
// time — at most 128 pending in any experiment at divisors 8192, 1024 and
// 256 — so the heap is shallow, and the scheduler reads its head (peek) far
// more often than it pushes.

// event is a scheduled wakeup: the continuation fn to call at time at — a
// task's k, or a blocked process's wake.
type event struct {
	at  time.Duration
	seq uint64 // tiebreak: FIFO among simultaneous events
	fn  func()
}

// before reports whether a dispatches ahead of b: earlier time first,
// FIFO among equals.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a hand-rolled binary min-heap of events ordered by (at, seq).
// container/heap would box each event into an interface{} on Push, costing an
// allocation per Sleep; the typed push/pop below keep the hot path
// allocation-free while preserving the exact same ordering.
type eventHeap []event

// push inserts ev, sifting it up to its heap position.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// peek returns the minimum event without removing it, and false when the
// heap is empty.
func (h eventHeap) peek() (event, bool) {
	if len(h) == 0 {
		return event{}, false
	}
	return h[0], true
}

// pop removes and returns the minimum event. The heap must be non-empty.
func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	ev := s[0]
	s[0] = s[n]
	s[n] = event{} // release the continuation
	s = s[:n]
	*h = s
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && s[right].before(s[left]) {
			child = right
		}
		if !s[child].before(s[i]) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return ev
}

// EventQueue is a standalone handle over the scheduler's event queue,
// exported for the property tests and the microbenchmarks. Push and Pop
// mirror how Env.schedule and Env.Run's dispatch loop drive the queue:
// pushed times clamp to the virtual clock, which advances to each popped
// event's time.
type EventQueue struct {
	heap eventHeap
	seq  uint64
	now  time.Duration
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.heap) }

// Now returns the queue's virtual clock.
func (q *EventQueue) Now() time.Duration { return q.now }

// Push schedules a wakeup at `at` (clamped to the current virtual time).
func (q *EventQueue) Push(at time.Duration) {
	if at < q.now {
		at = q.now
	}
	q.seq++
	q.heap.push(event{at: at, seq: q.seq})
}

// Pop dispatches the earliest (at, seq) event, advancing the virtual clock
// to its time, and returns that time and the event's sequence number.
func (q *EventQueue) Pop() (at time.Duration, seq uint64, ok bool) {
	if len(q.heap) == 0 {
		return 0, 0, false
	}
	ev := q.heap.pop()
	q.now = ev.at
	return ev.at, ev.seq, true
}
