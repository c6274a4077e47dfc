package bufpool

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"turbobp/internal/page"
)

// This file adds the pool's striped-latch mode, used by the partitioned
// concurrent file backend. The page directory stays one slice; each slot
// belongs to one of stripeCount stripes (id mod stripeCount), and a
// stripe's sync.RWMutex (the page-latch stripe) guards its slots and the
// payloads of their frames. Ops that mutate residency (Insert, PopVictim,
// Reset) or a resident page's payload (MutateFrame) take the page's stripe
// latch exclusively; readers take it shared. On top of the owner's external serialization (the
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
// Recency for latched reads is buffered: each stripe accumulates (id, at)
// touch records under a side lock, drained into the replacement state by
// the next PopVictim — the only consumer of recency. A full buffer drops
// further touches (bounded memory beats perfect recency; a dropped touch
// can only make victim choice slightly staler, never incorrect). A drain
// hands the stripe its previous batch's buffer back, so latched reads
// allocate nothing once the buffers have grown.

// stripe is one latch-granule of the page directory.
type stripe struct {
	mu sync.RWMutex

	tmu     sync.Mutex
	touches []pendingTouch
	spare   []pendingTouch // the last drained batch, the next touches buffer; owner only
}

// pendingTouch is one buffered access record from a latched read.
type pendingTouch struct {
	id int64
	at time.Duration
}

// touchCap bounds each stripe's pending-touch buffer.
const touchCap = 4096

// stripeCount is the number of page-latch stripes of a striped pool (a
// power of two: a page's stripe is the low bits of its id).
const stripeCount = 16

// NewStriped returns a pool in striped-latch mode (see New for the
// arguments). Its recency clock is its own atomic tick, which every access —
// latched read or owner-serialized operation — advances by one, in place of
// the caller-supplied time.
func NewStriped(capacity, payloadSize, pages int, kind Kind) *Pool {
	p := New(capacity, payloadSize, pages, kind)
	p.stripes = make([]stripe, stripeCount)
	return p
}

// stripeOf maps a page id to its latch stripe. Ids within a partition are
// dense, so the low bits spread them evenly.
func (p *Pool) stripeOf(id page.ID) *stripe {
	return &p.stripes[uint64(id)&(stripeCount-1)]
}

// now substitutes the striped pool's tick for a caller-supplied time.
func (p *Pool) now(t time.Duration) time.Duration {
	if p.stripes != nil {
		return time.Duration(p.tick.Add(1))
	}
	return t
}

// get returns id's resident frame, or nil, taking the stripe latch in
// striped mode. Callers in striped mode must not hold the same stripe latch.
func (p *Pool) get(id page.ID) *Frame {
	if p.stripes == nil {
		return p.frame(p.dir[id])
	}
	s := p.stripeOf(id)
	s.mu.RLock()
	f := p.frame(p.dir[id])
	s.mu.RUnlock()
	return f
}

// frame resolves a directory value to its frame (nil for 0).
func (p *Pool) frame(slot int32) *Frame {
	if slot == 0 {
		return nil
	}
	return &p.frames[slot-1]
}

// set stores a directory value for id (a frame's slot, or 0 to remove it),
// exclusively latching the stripe in striped mode. After a removal returns,
// no latched reader holds the frame.
func (p *Pool) set(id page.ID, slot int32) {
	if p.stripes == nil {
		p.dir[id] = slot
		return
	}
	s := p.stripeOf(id)
	s.mu.Lock()
	p.dir[id] = slot
	s.mu.Unlock()
}

// ReadLatched copies the payload of a resident page into dst under the
// page's stripe read latch and reports whether the page was resident. It is
// the one pool operation safe to call WITHOUT the owner's serialization:
// the latch orders the copy against Insert/PopVictim (which delete
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
	f := p.frame(p.dir[id])
	var n int
	if f != nil {
		n = copy(dst, f.Pg.Payload)
	}
	s.mu.RUnlock()
	if f == nil {
		return 0, false
	}
	s.record(int64(id), p.now(0))
	return n, true
}

// record buffers one latched-read access for the next drain; a full buffer
// drops it.
func (s *stripe) record(id int64, at time.Duration) {
	s.tmu.Lock()
	if len(s.touches) < touchCap {
		s.touches = append(s.touches, pendingTouch{id: id, at: at})
	}
	s.tmu.Unlock()
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
// state. Called under the owner's serialization, right before victim
// selection — the only moment recency is consulted. Each stripe's batch is
// sorted by (at, id) before replay: the append order of concurrent
// ReadLatched callers is scheduling-dependent, and CFLRU's recency list
// orders frames by the call order of their touches, not by the times they
// carry, so an unsorted replay would leak thread timing into victim
// choice. Sorting makes the replay a pure function of the recorded
// (id, at) set.
func (p *Pool) drainTouches() {
	for i := range p.stripes {
		s := &p.stripes[i]
		s.tmu.Lock()
		pend := s.touches
		s.touches = s.spare[:0]
		s.tmu.Unlock()
		slices.SortFunc(pend, func(a, b pendingTouch) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.id, b.id))
		})
		for _, t := range pend {
			if f := p.frame(p.dir[t.id]); f != nil {
				p.touch(f, t.at)
			}
		}
		s.spare = pend
	}
}
