// Package bufpool implements the in-memory buffer pool: a fixed set of page
// frames with a page-indexed directory for lookup and a replacement policy
// for victim selection. Both policies index the frame table. Under the
// default LRU-2 each frame holds its page's access history and the victim
// order is a heap of frame indices (lru2.go), as in the SSD tier; under
// CFLRU it is a clean-first recency list of frame indices (cflru.go).
//
// Determinism contract: every victim derives from the call sequence alone
// (no map-iteration order, no time source, no randomness), which keeps the
// simulation's stdout byte-identical across -parallel widths.
//
// The pool is a passive structure — it performs no I/O and charges no time.
// The storage engine (internal/engine) drives the §2.2 data flow: on a miss
// it takes a frame from here, fills it from the SSD manager or the disk, and
// inserts it; on pressure it pops a victim and routes the evicted page
// according to the active SSD design.
package bufpool

import (
	"fmt"
	"sync/atomic"
	"time"

	"turbobp/internal/page"
)

// Kind selects the pool's replacement policy. The zero value is LRU2, the
// paper's policy, so zero-valued configs keep it.
type Kind uint8

// The replacement policies.
const (
	// LRU2 is LRU-2 (O'Neil et al.): victims ordered by penultimate-access
	// time (lru2Heap).
	LRU2 Kind = iota
	// CFLRU is clean-first LRU: the eviction scan prefers clean frames
	// inside a window at the cold end, deferring dirty pages to cut
	// write-back traffic (cflruList).
	CFLRU
)

// Kinds lists every policy in presentation order.
var Kinds = []Kind{LRU2, CFLRU}

// String returns the flag-level name of the policy.
func (k Kind) String() string {
	switch k {
	case LRU2:
		return "lru2"
	case CFLRU:
		return "cflru"
	}
	return fmt.Sprintf("policy(%d)", uint8(k))
}

// ParseKind maps a flag value to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "lru2", "":
		return LRU2, nil
	case "cflru":
		return CFLRU, nil
	}
	return LRU2, fmt.Errorf("unknown cache policy %q (want lru2 or cflru)", s)
}

// Stats counts replacement decisions.
type Stats struct {
	CleanFirstEvict int64 // CFLRU: victims chosen over at least one older dirty frame
}

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

	slot int32 // this frame's directory value: its index in Pool.frames + 1

	// Under LRU-2 (lru2Heap): the page's last two accesses, prev = never
	// after one, and the pair its heap slot is ordered by.
	last, prev   time.Duration
	hlast, hprev time.Duration
}

// Pool is the memory buffer pool. In its default single-latch mode (New) it
// is not safe for wall-clock-concurrent use; under the simulation kernel,
// accesses are naturally serialized. NewStriped builds the pool in
// striped-latch mode instead (see striped.go): residency and payload
// mutations take per-stripe RWMutex latches, and ReadLatched offers a
// copy-out read path that needs no external serialization.
//
// Every frame's payload is a window of one slab, and the free list holds
// frame indices, so a pool is a handful of allocations whatever its size.
type Pool struct {
	payload int
	frames  []Frame
	dir     []int32 // page id -> frame index + 1; 0 = not resident
	kind    Kind
	lru2    lru2Heap  // the victim order under LRU-2
	cflru   cflruList // the victim order under CFLRU
	free    []int32   // indices into frames

	// Striped-latch mode (nil stripes = single-latch mode; see striped.go).
	stripes []stripe
	tick    atomic.Int64   // striped mode's access clock
	merged  []pendingTouch // every stripe's drained touches; owner only
}

// New returns a single-latch pool of capacity frames holding
// payloadSize-byte payloads of pages with ids in [0, pages), whose victim
// selection is driven by the given replacement policy.
func New(capacity, payloadSize, pages int, kind Kind) *Pool {
	if capacity < 1 {
		panic(fmt.Sprintf("bufpool: capacity %d", capacity))
	}
	p := &Pool{
		payload: payloadSize,
		frames:  make([]Frame, capacity),
		dir:     make([]int32, pages),
		kind:    kind,
		free:    make([]int32, 0, capacity),
	}
	p.lru2.frames = p.frames
	p.cflru.frames = p.frames
	if kind == LRU2 {
		p.lru2.at = make([]int32, 0, capacity)
	} else {
		p.cflru.links = make([]cflruLink, capacity+1)
		p.cflru.window = max(capacity/4, 1)
	}
	p.resetRepl()
	slab := make([]byte, capacity*payloadSize)
	for i := capacity - 1; i >= 0; i-- {
		f := &p.frames[i]
		f.Pg.Payload = slab[i*payloadSize : (i+1)*payloadSize : (i+1)*payloadSize]
		f.slot = int32(i + 1)
		p.free = append(p.free, int32(i))
	}
	return p
}

// resetRepl empties the replacement state: the LRU-2 heap or the CFLRU
// list.
func (p *Pool) resetRepl() {
	if p.kind == LRU2 {
		p.lru2.at = p.lru2.at[:0]
		return
	}
	p.cflru.reset()
}

// PolicyStats returns the replacement policy's decision counters; LRU-2
// keeps none.
func (p *Pool) PolicyStats() Stats { return Stats{CleanFirstEvict: p.cflru.cleanFirst} }

// Capacity returns the total number of frames.
func (p *Pool) Capacity() int { return len(p.frames) }

// Resident returns the number of pages currently in the directory.
func (p *Pool) Resident() int {
	n := 0
	p.each(func(*Frame) { n++ })
	return n
}

// each calls fn on every resident frame, in frame order. Like the other
// residency readers it runs under the owner's serialization, which also
// orders every directory write.
func (p *Pool) each(fn func(f *Frame)) {
	for i := range p.frames {
		if f := &p.frames[i]; p.dir[f.Pg.ID] == f.slot {
			fn(f)
		}
	}
}

// FreeFrames returns the number of unused frames.
func (p *Pool) FreeFrames() int { return len(p.free) }

// PayloadSize returns the configured payload size.
func (p *Pool) PayloadSize() int { return p.payload }

// Lookup returns the resident frame for id and records an access at now, or
// nil on a miss.
func (p *Pool) Lookup(id page.ID, now time.Duration) *Frame {
	f := p.get(id)
	if f == nil {
		return nil
	}
	p.touch(f, p.now(now))
	return f
}

// touch records an access to resident frame f at now.
func (p *Pool) touch(f *Frame, now time.Duration) {
	if p.kind == LRU2 {
		f.touch(now)
		return
	}
	p.cflru.touch(f.slot - 1)
}

// Peek returns the resident frame without touching replacement state.
func (p *Pool) Peek(id page.ID) *Frame { return p.get(id) }

// TakeFree removes and returns a free frame, or nil if none remain.
func (p *Pool) TakeFree() *Frame {
	if len(p.free) == 0 {
		return nil
	}
	i := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return &p.frames[i]
}

// PopVictim selects the replacement policy's victim, removes it from the
// table and replacement structures, and returns it. The caller owns the frame: it must
// write out the page if dirty and then either Insert it under a new id or
// Release it. Returns nil if the pool is empty.
func (p *Pool) PopVictim() *Frame {
	if p.stripes != nil {
		p.drainTouches()
	}
	var idx int32
	if p.kind == LRU2 {
		idx = p.lru2.pop()
	} else {
		idx = p.cflru.pop()
	}
	if idx < 0 {
		return nil
	}
	f := &p.frames[idx]
	p.set(f.Pg.ID, 0)
	return f
}

// Insert publishes frame under f.Pg.ID, recording an access at now. If the
// page is already resident (a concurrent fill won the race), Insert returns
// the existing frame and false, and the caller's frame is returned to the
// free list.
func (p *Pool) Insert(f *Frame, now time.Duration) (*Frame, bool) {
	id := f.Pg.ID
	if existing := p.get(id); existing != nil {
		p.Release(f)
		p.touch(existing, p.now(now))
		return existing, false
	}
	p.set(id, f.slot)
	at := p.now(now)
	if p.kind == LRU2 {
		p.lru2.push(f.slot-1, at)
	} else {
		p.cflru.push(f.slot - 1)
	}
	return f, true
}

// Release returns a frame (not in the table) to the free list.
func (p *Pool) Release(f *Frame) {
	f.Dirty = false
	f.Seq = false
	f.RecLSN = 0
	f.Pg.ID = 0
	f.Pg.LSN = 0
	p.free = append(p.free, f.slot-1)
}

// DirtyPages returns the ids of all dirty resident pages, in frame order.
func (p *Pool) DirtyPages() []page.ID {
	var ids []page.ID
	p.each(func(f *Frame) {
		if f.Dirty {
			ids = append(ids, f.Pg.ID)
		}
	})
	return ids
}

// Pages returns the ids of all resident pages, in frame order.
func (p *Pool) Pages() []page.ID {
	var ids []page.ID
	p.each(func(f *Frame) { ids = append(ids, f.Pg.ID) })
	return ids
}

// Reset empties the pool (crash simulation): every frame is freed and all
// contents are discarded.
func (p *Pool) Reset() {
	p.each(func(f *Frame) { p.set(f.Pg.ID, 0) })
	for i := range p.stripes {
		s := &p.stripes[i]
		s.tmu.Lock()
		s.touches = s.touches[:0]
		s.tmu.Unlock()
	}
	p.resetRepl()
	p.free = p.free[:0]
	for i := len(p.frames) - 1; i >= 0; i-- {
		p.Release(&p.frames[i])
	}
}
