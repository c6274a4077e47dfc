// Package policy names the buffer-replacement policies and implements the
// adaptive ones (ARC, CFLRU, TinyLFU) behind one interface, so the DRAM pool
// and the SSD tier can swap them without touching their frame plumbing.
// The default, LRU-2, has no implementation here: each owner keeps it in
// its own frame table, a page's history in its frame and the victim order
// a heap of frame indices (internal/bufpool and internal/ssd). The
// interface — Touch, TouchHistory, Remove, Victim, Pop, History — keys by
// page id and carries an Admit hook that admission-gating policies
// (TinyLFU) use to refuse entries, plus optional extension interfaces for
// dirty-awareness (CFLRU) and access recording (feeding a frequency sketch
// from lookups that never reach the policy's own lists).
//
// Determinism contract: implementations must derive every decision from
// the call sequence alone — no map-iteration order, no time sources, no
// randomness. Two policies fed the same Touch/Remove/Pop stream must
// produce the same victim sequence on every run, which is what keeps the
// simulation's stdout byte-identical across -parallel widths.
package policy

import (
	"fmt"
	"time"
)

// Kind selects a replacement policy. The zero value is LRU2, the
// pre-refactor default, so zero-valued configs keep their old behavior.
type Kind uint8

// The built-in policies.
const (
	// LRU2 is the LRU-2 default (O'Neil et al.): victims ordered by
	// penultimate-access time. Its owners keep it in their frame tables;
	// New does not build it.
	LRU2 Kind = iota
	// ARC is the adaptive ghost-cache policy: two real lists (recency,
	// frequency) and two ghost lists whose hits tune the split between
	// them.
	ARC
	// CFLRU is clean-first LRU: the eviction scan prefers clean entries
	// inside a window at the cold end, deferring dirty pages to cut
	// write-back traffic.
	CFLRU
	// TinyLFU keeps a count-min frequency sketch with a doorkeeper: the
	// sketch drives admission gating and frequency-informed eviction,
	// with periodic halving so stale frequency ages out.
	TinyLFU
)

// Kinds lists every policy in presentation order.
var Kinds = []Kind{LRU2, ARC, CFLRU, TinyLFU}

// String returns the flag-level name of the policy.
func (k Kind) String() string {
	switch k {
	case LRU2:
		return "lru2"
	case ARC:
		return "arc"
	case CFLRU:
		return "cflru"
	case TinyLFU:
		return "tinylfu"
	}
	return fmt.Sprintf("policy(%d)", uint8(k))
}

// ParseKind maps a flag value to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "lru2", "":
		return LRU2, nil
	case "arc":
		return ARC, nil
	case "cflru":
		return CFLRU, nil
	case "tinylfu":
		return TinyLFU, nil
	}
	return LRU2, fmt.Errorf("unknown cache policy %q (want lru2, arc, cflru or tinylfu)", s)
}

// Policy is one adaptive replacement policy instance. Keys are page ids:
// the DRAM pool's, and the SSD tier's per-shard clean heaps'. Under LRU2
// neither keeps a Policy: their heaps order frame indices by their own
// frame tables.
type Policy interface {
	// Touch records an access at virtual time now, inserting the key if
	// it is not tracked.
	Touch(key int64, now time.Duration)
	// TouchHistory (re-)inserts a key with an explicit (last, prev)
	// access history, as when a frame's history is carried across a
	// clean/dirty list move or a busy-victim skip.
	TouchHistory(key int64, last, prev time.Duration)
	// Remove forgets a key entirely (invalidation, not eviction — no
	// ghost is left behind).
	Remove(key int64)
	// Victim returns the key the policy would evict next, without
	// removing it.
	Victim() (int64, bool)
	// Pop removes and returns the eviction victim.
	Pop() (int64, bool)
	// Len reports the number of resident (non-ghost) keys tracked.
	Len() int
	// Contains reports whether key is resident in the policy.
	Contains(key int64) bool
	// History returns the recorded (last, prev) access times for key.
	History(key int64) (last, prev time.Duration, seen bool)
	// Admit reports whether the policy would admit key at time now.
	// Eviction-only policies always return true; admission-gating
	// policies (TinyLFU) consult their frequency filter and count
	// refusals in Stats.AdmitRejects.
	Admit(key int64, now time.Duration) bool
	// Stats returns the policy's decision counters.
	Stats() Stats
}

// DirtyAware is implemented by policies whose victim choice depends on
// dirty state (CFLRU). The owner installs a callback that reports whether
// a key's frame is currently dirty; a nil or absent callback makes the
// policy behave as plain recency LRU.
type DirtyAware interface {
	SetDirtyFn(fn func(key int64) bool)
}

// Recorder is implemented by policies that learn from accesses beyond
// their own resident set (TinyLFU's sketch). Owners call Record on every
// lookup — hit or miss — so the frequency filter sees the full reference
// stream, not just the resident slice of it.
type Recorder interface {
	Record(key int64)
}

// Stats counts policy decisions. Fields are cumulative except SplitPos,
// which is a gauge sampled at read time; metrics.Add sums it across shards
// like the counters, which is crude but keeps the fold uniform.
type Stats struct {
	GhostHits       int64 // ARC: accesses that hit a ghost list
	SplitPos        int64 // ARC: current adaptive target size of the recency list
	CleanFirstEvict int64 // CFLRU: victims chosen over at least one older dirty entry
	AdmitRejects    int64 // TinyLFU: admissions refused by the doorkeeper/sketch
}

// New builds an adaptive policy of the given kind sized for capacity
// entries: capacity bounds ARC's ghost lists, CFLRU's clean-first window
// and TinyLFU's sketch width. It panics on LRU2, which its owners keep in
// their frame tables, and on an unknown kind.
func New(kind Kind, capacity int) Policy {
	switch kind {
	case ARC:
		return newARC(capacity)
	case CFLRU:
		return newCFLRU(capacity)
	case TinyLFU:
		return newTinyLFU(capacity)
	}
	panic(fmt.Sprintf("policy: New(%v): not an adaptive policy", kind))
}

// never is the penultimate-access value of entries seen only once; it sorts
// before every real timestamp, making such entries preferred victims. The
// LRU-2 frame tables use the same encoding, so a history carries over
// between them and the adaptive policies.
const never = time.Duration(-1) << 32

// Never returns the sentinel penultimate-access value of once-referenced
// entries.
func Never() time.Duration { return never }
