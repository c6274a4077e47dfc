// Package policy abstracts the buffer-replacement decision behind one
// interface so the DRAM pool and the SSD tier can swap caching policies
// without touching their frame plumbing. The surface is the arena-backed
// LRU-2 cache's (LRU2Cache, the default policy) — Touch, TouchHistory,
// Remove, Victim, Pop, History — plus an Admit hook that admission-gating
// policies (TinyLFU) use to refuse entries, and optional extension
// interfaces for dirty-awareness (CFLRU) and access recording (feeding a
// frequency sketch from lookups that never reach the policy's own lists).
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
	// LRU2 is the arena-backed LRU-2 default (O'Neil et al.): victims
	// ordered by penultimate-access time, with history kept per entry.
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

// Policy is one replacement policy instance. Keys are non-negative int64s
// below the bound given to New: the DRAM pool keys by page id; the SSD
// tier keys its per-shard clean heaps by shard-local frame number under
// LRU2 (preserving the legacy tie-break order) and by page id under the
// adaptive policies.
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
// which is a gauge sampled at read time; summing gauges across shards is
// crude but keeps the fieldwise Stats.Add contract uniform.
type Stats struct {
	GhostHits       int64 // ARC: accesses that hit a ghost list
	SplitPos        int64 // ARC: current adaptive target size of the recency list
	CleanFirstEvict int64 // CFLRU: victims chosen over at least one older dirty entry
	AdmitRejects    int64 // TinyLFU: admissions refused by the doorkeeper/sketch
}

// Add accumulates other into s fieldwise.
func (s *Stats) Add(other Stats) {
	s.GhostHits += other.GhostHits
	s.SplitPos += other.SplitPos
	s.CleanFirstEvict += other.CleanFirstEvict
	s.AdmitRejects += other.AdmitRejects
}

// New builds a policy of the given kind sized for capacity entries over
// keys in [0, keys). Capacity bounds ARC's ghost lists, CFLRU's clean-first
// window and TinyLFU's sketch width; LRU2 grows with its arena and ignores
// it. Only LRU2 indexes by key, so only LRU2 uses the key bound.
func New(kind Kind, capacity, keys int) Policy {
	switch kind {
	case ARC:
		return newARC(capacity)
	case CFLRU:
		return newCFLRU(capacity)
	case TinyLFU:
		return newTinyLFU(capacity)
	default:
		return NewLRU2(keys)
	}
}
