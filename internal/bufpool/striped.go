package bufpool

import (
	"sort"
	"sync"
	"time"

	"turbobp/internal/page"
	"turbobp/internal/pagetab"
	"turbobp/internal/policy"
)

// This file adds the pool's striped-latch mode, used by the partitioned
// concurrent file backend. The single resident table becomes S sub-tables,
// each guarded by its own sync.RWMutex (the page-latch stripes). Ops that
// mutate residency (Insert, PopVictim, Drop, Reset) or a resident page's
// payload (MutateFrame) take the page's stripe latch exclusively; readers
// take it shared. On top of the owner's external serialization (the
// partition mutex) this buys one thing, and it is the profitable one:
// ReadLatched, a copy-out read of a resident page that runs WITHOUT the
// partition mutex — concurrent point reads of resident pages proceed in
// parallel, throttled only by their stripe.
//
// Latch-order rule: stripe latches are leaves. No pool code (and no caller)
// may acquire any other lock while holding one; owners acquire them only
// while already holding their partition mutex (partition -> stripe), and
// ReadLatched holds nothing else. Both orders embed in the same total
// order, so the hierarchy is deadlock-free.
//
// LRU-2 recency for latched reads is buffered: each stripe accumulates
// (id, at) touch records under a side lock, drained into the replacement
// cache by the next PopVictim — the only consumer of recency. A full
// buffer drops further touches (bounded memory beats perfect recency; a
// dropped touch can only make victim choice slightly staler, never
// incorrect).

// stripe is one latch-granule of the striped resident table.
type stripe struct {
	mu    sync.RWMutex
	table *pagetab.Table[*Frame]

	tmu     sync.Mutex
	touches []pendingTouch
}

// pendingTouch is one buffered LRU-2 access record from a latched read.
type pendingTouch struct {
	id int64
	at time.Duration
}

// touchCap bounds each stripe's pending-touch buffer.
const touchCap = 4096

// NewStriped returns a pool in striped-latch mode with the given number of
// stripes (rounded up to a power of two). clock, when non-nil, overrides
// every caller-supplied access time — the concurrent backend passes a
// shared atomic tick so latched reads and engine ops draw recency from one
// scale.
func NewStriped(capacity, payloadSize, stripes int, clock func() time.Duration) *Pool {
	return NewStripedWithPolicy(capacity, payloadSize, stripes, clock, policy.LRU2)
}

// NewStripedWithPolicy is NewStriped with an explicit replacement policy.
func NewStripedWithPolicy(capacity, payloadSize, stripes int, clock func() time.Duration, kind policy.Kind) *Pool {
	p := NewWithPolicy(capacity, payloadSize, kind)
	if stripes < 1 {
		stripes = 1
	}
	n := 1
	for n < stripes {
		n <<= 1
	}
	per := capacity/n + 1
	p.table = nil
	p.stripes = make([]stripe, n)
	for i := range p.stripes {
		p.stripes[i].table = pagetab.New[*Frame](per)
	}
	p.mask = uint64(n - 1)
	p.clock = clock
	return p
}

// Striped reports whether the pool is in striped-latch mode.
func (p *Pool) Striped() bool { return p.stripes != nil }

// stripeOf maps a page id to its latch stripe. Ids within a partition are
// dense, so the low bits spread them evenly.
func (p *Pool) stripeOf(id page.ID) *stripe {
	return &p.stripes[uint64(id)&p.mask]
}

// now substitutes the pool clock for a caller-supplied time when one is set.
func (p *Pool) now(t time.Duration) time.Duration {
	if p.clock != nil {
		return p.clock()
	}
	return t
}

// get looks id up in the resident directory, taking the stripe latch in
// striped mode. Callers in striped mode must not hold the same stripe latch.
func (p *Pool) get(id page.ID) (*Frame, bool) {
	if p.stripes == nil {
		return p.table.Get(uint64(id))
	}
	s := p.stripeOf(id)
	s.mu.RLock()
	f, ok := s.table.Get(uint64(id))
	s.mu.RUnlock()
	return f, ok
}

// put publishes id -> f, exclusively latching the stripe in striped mode.
func (p *Pool) put(id page.ID, f *Frame) {
	if p.stripes == nil {
		p.table.Put(uint64(id), f)
		return
	}
	s := p.stripeOf(id)
	s.mu.Lock()
	s.table.Put(uint64(id), f)
	s.mu.Unlock()
}

// del removes id from the directory, exclusively latching the stripe in
// striped mode. After del returns, no latched reader holds the frame.
func (p *Pool) del(id page.ID) {
	if p.stripes == nil {
		p.table.Delete(uint64(id))
		return
	}
	s := p.stripeOf(id)
	s.mu.Lock()
	s.table.Delete(uint64(id))
	s.mu.Unlock()
}

// ReadLatched copies the payload of a resident page into dst under the
// page's stripe read latch and reports whether the page was resident. It is
// the one pool operation safe to call WITHOUT the owner's serialization:
// the latch orders the copy against Insert/PopVictim/Drop (which delete
// under the exclusive latch before reusing a frame) and against
// MutateFrame's in-place payload writes. The access is recorded in the
// stripe's touch buffer for the next victim-selection drain. A single-latch
// pool has no latch to read under, so it reports every page not resident and
// the caller falls back to its serialized path.
func (p *Pool) ReadLatched(id page.ID, dst []byte) (int, bool) {
	if p.stripes == nil {
		return 0, false
	}
	s := p.stripeOf(id)
	s.mu.RLock()
	f, ok := s.table.Get(uint64(id))
	var n int
	if ok {
		n = copy(dst, f.Pg.Payload)
	}
	s.mu.RUnlock()
	if !ok {
		return 0, false
	}
	at := p.now(0)
	s.tmu.Lock()
	if len(s.touches) < touchCap {
		s.touches = append(s.touches, pendingTouch{id: int64(id), at: at})
	}
	s.tmu.Unlock()
	return n, true
}

// MutateFrame applies fn to f's payload. In striped mode the write happens
// under the frame's exclusive stripe latch, so latched readers never see a
// torn payload; in single-latch mode it is a direct call. fn is the DB
// caller's code, run on the caller's goroutine: the latch is released by
// defer so that its panic does not wedge the stripe.
func (p *Pool) MutateFrame(f *Frame, fn func(payload []byte)) {
	if p.stripes == nil {
		fn(f.Pg.Payload)
		return
	}
	s := p.stripeOf(f.Pg.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(f.Pg.Payload)
}

// drainTouches replays buffered latched-read accesses into the replacement
// cache. Called under the owner's serialization, right before victim
// selection — the only moment recency is consulted. Each stripe's batch is
// sorted by (at, id) before replay: the append order of concurrent
// ReadLatched callers is scheduling-dependent, and policies with admission
// state (TinyLFU's doorkeeper and sketch) observe every Touch, so an
// unsorted replay would leak thread timing into victim choice. Sorting
// makes the replay a pure function of the recorded (id, at) set.
func (p *Pool) drainTouches() {
	for i := range p.stripes {
		s := &p.stripes[i]
		s.tmu.Lock()
		pend := s.touches
		s.touches = nil
		s.tmu.Unlock()
		sort.Slice(pend, func(a, b int) bool {
			if pend[a].at != pend[b].at {
				return pend[a].at < pend[b].at
			}
			return pend[a].id < pend[b].id
		})
		for _, t := range pend {
			if _, ok := s.table.Get(uint64(t.id)); ok {
				p.repl.Touch(t.id, t.at)
			}
		}
	}
}
