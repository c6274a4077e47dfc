// Package bufpool implements the in-memory buffer pool: a fixed set of page
// frames with a hash table for lookup and LRU-2 victim selection.
//
// The pool is a passive structure — it performs no I/O and charges no time.
// The storage engine (internal/engine) drives the §2.2 data flow: on a miss
// it takes a frame from here, fills it from the SSD manager or the disk, and
// inserts it; on pressure it pops a victim and routes the evicted page
// according to the active SSD design.
package bufpool

import (
	"fmt"
	"time"

	"turbobp/internal/page"
	"turbobp/internal/pagetab"
	"turbobp/internal/policy"
)

// Frame holds one resident page and its bookkeeping bits.
type Frame struct {
	Pg    page.Page
	Dirty bool
	// Seq records how the page came into memory: true if it was fetched by
	// the read-ahead (sequential) path. The SSD admission policy consults it
	// when the page is later evicted.
	Seq bool
	// RecLSN is the LSN of the first update that dirtied the page since it
	// was last clean (used by checkpointing bookkeeping; the page header LSN
	// is the last update).
	RecLSN uint64
}

// Pool is the memory buffer pool. In its default single-latch mode it is
// not safe for wall-clock-concurrent use; under the simulation kernel,
// accesses are naturally serialized. NewStriped builds the pool in
// striped-latch mode instead (see striped.go): residency and payload
// mutations take per-stripe RWMutex latches, and ReadLatched offers a
// copy-out read path that needs no external serialization.
type Pool struct {
	payload int
	frames  []Frame
	table   *pagetab.Table[*Frame] // resident pages, a flat open-addressing directory (single-latch mode)
	kind    policy.Kind
	repl    policy.Policy
	free    []*Frame

	// Striped-latch mode (nil stripes = single-latch mode; see striped.go).
	stripes []stripe
	mask    uint64
	clock   func() time.Duration
}

// New returns a pool of capacity frames holding payloadSize-byte payloads,
// using the default LRU-2 replacement policy.
func New(capacity, payloadSize int) *Pool {
	return NewWithPolicy(capacity, payloadSize, policy.LRU2)
}

// NewWithPolicy returns a pool whose victim selection is driven by the
// given replacement policy. Keys handed to the policy are page ids.
func NewWithPolicy(capacity, payloadSize int, kind policy.Kind) *Pool {
	if capacity < 1 {
		panic(fmt.Sprintf("bufpool: capacity %d", capacity))
	}
	p := &Pool{
		payload: payloadSize,
		frames:  make([]Frame, capacity),
		table:   pagetab.New[*Frame](capacity),
		kind:    kind,
	}
	p.repl = p.newRepl()
	p.free = make([]*Frame, 0, capacity)
	for i := capacity - 1; i >= 0; i-- {
		p.frames[i].Pg.Payload = make([]byte, payloadSize)
		p.free = append(p.free, &p.frames[i])
	}
	return p
}

// newRepl builds a fresh policy instance for this pool, wiring the
// dirty-awareness hook for policies that want it (CFLRU defers dirty
// pages, so its victim scan asks the resident table for dirty state).
func (p *Pool) newRepl() policy.Policy {
	r := policy.New(p.kind, len(p.frames))
	if da, ok := r.(policy.DirtyAware); ok {
		da.SetDirtyFn(func(key int64) bool {
			f, ok := p.get(page.ID(key))
			return ok && f.Dirty
		})
	}
	return r
}

// Policy returns the pool's replacement-policy kind.
func (p *Pool) Policy() policy.Kind { return p.kind }

// PolicyStats returns the replacement policy's decision counters.
func (p *Pool) PolicyStats() policy.Stats { return p.repl.Stats() }

// Capacity returns the total number of frames.
func (p *Pool) Capacity() int { return len(p.frames) }

// Resident returns the number of pages currently in the table.
func (p *Pool) Resident() int {
	if p.stripes != nil {
		n := 0
		for i := range p.stripes {
			n += p.stripes[i].table.Len()
		}
		return n
	}
	return p.table.Len()
}

// FreeFrames returns the number of unused frames.
func (p *Pool) FreeFrames() int { return len(p.free) }

// PayloadSize returns the configured payload size.
func (p *Pool) PayloadSize() int { return p.payload }

// Lookup returns the resident frame for id and records an access at now, or
// nil on a miss.
func (p *Pool) Lookup(id page.ID, now time.Duration) *Frame {
	f, ok := p.get(id)
	if !ok {
		return nil
	}
	p.repl.Touch(int64(id), p.now(now))
	return f
}

// Peek returns the resident frame without touching replacement state.
func (p *Pool) Peek(id page.ID) *Frame {
	f, _ := p.get(id)
	return f
}

// TakeFree removes and returns a free frame, or nil if none remain.
func (p *Pool) TakeFree() *Frame {
	if len(p.free) == 0 {
		return nil
	}
	f := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return f
}

// PopVictim selects the replacement policy's victim, removes it from the
// table and replacement structures, and returns it. The caller owns the frame: it must
// write out the page if dirty and then either Insert it under a new id or
// Release it. Returns nil if the pool is empty.
func (p *Pool) PopVictim() *Frame {
	if p.stripes != nil {
		p.drainTouches()
	}
	key, ok := p.repl.Pop()
	if !ok {
		return nil
	}
	f, _ := p.get(page.ID(key))
	if f == nil {
		panic(fmt.Sprintf("bufpool: victim %d not in table", key))
	}
	p.del(page.ID(key))
	return f
}

// Insert publishes frame under f.Pg.ID, recording an access at now. If the
// page is already resident (a concurrent fill won the race), Insert returns
// the existing frame and false, and the caller's frame is returned to the
// free list.
func (p *Pool) Insert(f *Frame, now time.Duration) (*Frame, bool) {
	id := f.Pg.ID
	if existing, ok := p.get(id); ok {
		p.Release(f)
		p.repl.Touch(int64(id), p.now(now))
		return existing, false
	}
	p.put(id, f)
	p.repl.Touch(int64(id), p.now(now))
	return f, true
}

// Release returns a frame (not in the table) to the free list.
func (p *Pool) Release(f *Frame) {
	f.Dirty = false
	f.Seq = false
	f.RecLSN = 0
	f.Pg.ID = 0
	f.Pg.LSN = 0
	p.free = append(p.free, f)
}

// Drop removes a resident page and frees its frame without any writeback
// (used by the multi-page read path when a stale disk version must be
// replaced by the SSD version, and by crash simulation).
func (p *Pool) Drop(id page.ID) {
	f, ok := p.get(id)
	if !ok {
		return
	}
	p.del(id)
	p.repl.Remove(int64(id))
	p.Release(f)
}

// DirtyPages returns the ids of all dirty resident pages, in the table's
// deterministic iteration order.
func (p *Pool) DirtyPages() []page.ID {
	var ids []page.ID
	collect := func(id uint64, f *Frame) bool {
		if f.Dirty {
			ids = append(ids, page.ID(id))
		}
		return true
	}
	if p.stripes != nil {
		for i := range p.stripes {
			p.stripes[i].table.Range(collect)
		}
		return ids
	}
	p.table.Range(collect)
	return ids
}

// Pages returns the ids of all resident pages, in the table's
// deterministic iteration order.
func (p *Pool) Pages() []page.ID {
	ids := make([]page.ID, 0, p.Resident())
	collect := func(id uint64, _ *Frame) bool {
		ids = append(ids, page.ID(id))
		return true
	}
	if p.stripes != nil {
		for i := range p.stripes {
			p.stripes[i].table.Range(collect)
		}
		return ids
	}
	p.table.Range(collect)
	return ids
}

// Reset empties the pool (crash simulation): every frame is freed and all
// contents are discarded.
func (p *Pool) Reset() {
	if p.stripes != nil {
		for i := range p.stripes {
			s := &p.stripes[i]
			s.mu.Lock()
			s.table.Reset()
			s.mu.Unlock()
			s.tmu.Lock()
			s.touches = nil
			s.tmu.Unlock()
		}
	} else {
		p.table.Reset()
	}
	p.repl = p.newRepl()
	p.free = p.free[:0]
	for i := len(p.frames) - 1; i >= 0; i-- {
		f := &p.frames[i]
		f.Dirty = false
		f.Seq = false
		f.RecLSN = 0
		f.Pg.ID = 0
		f.Pg.LSN = 0
		p.free = append(p.free, f)
	}
}
