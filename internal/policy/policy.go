// Package policy names the buffer-replacement policies and implements the
// one besides LRU-2, CFLRU, as a concrete type both tiers call directly.
// The default, LRU-2, has no implementation here: each owner keeps it in
// its own frame table, a page's history in its frame and the victim order
// a heap of frame indices (internal/bufpool and internal/ssd).
//
// Determinism contract: every decision derives from the call sequence
// alone — no map-iteration order, no time sources, no randomness. Two
// instances fed the same Touch/Remove/Pop stream produce the same victim
// sequence on every run, which is what keeps the simulation's stdout
// byte-identical across -parallel widths.
package policy

import (
	"fmt"
	"time"
)

// Kind selects a replacement policy. The zero value is LRU2, the paper's
// policy, so zero-valued configs keep it.
type Kind uint8

// The built-in policies.
const (
	// LRU2 is the LRU-2 default (O'Neil et al.): victims ordered by
	// penultimate-access time. Its owners keep it in their frame tables.
	LRU2 Kind = iota
	// CFLRU is clean-first LRU: the eviction scan prefers clean entries
	// inside a window at the cold end, deferring dirty pages to cut
	// write-back traffic (CFLRUList).
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

// Stats counts policy decisions.
type Stats struct {
	CleanFirstEvict int64 // CFLRU: victims chosen over at least one older dirty entry
}

// never is the penultimate-access value of entries seen only once; it sorts
// before every real timestamp, making such entries preferred victims. The
// LRU-2 frame tables use the same encoding, so a history carries over
// between them and CFLRU.
const never = time.Duration(-1) << 32

// Never returns the sentinel penultimate-access value of once-referenced
// entries.
func Never() time.Duration { return never }
