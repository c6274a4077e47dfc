package bufpool

import (
	"testing"
	"time"

	"turbobp/internal/page"
	"turbobp/internal/policy"
)

// TestStripedDrainDeterministicOrder pins the drain-order fix: buffered
// latched-read touches must replay into the replacement policy in (at, id)
// order, not in the append order of the concurrent ReadLatched callers
// (which is scheduling-dependent). Two pools observe the same (id, at)
// touch set appended in opposite orders; their victim sequences must
// match. TinyLFU makes append-order leaks visible — its recency list and
// admission sketch observe every replayed Touch in sequence — but the
// property must hold for every policy.
func TestStripedDrainDeterministicOrder(t *testing.T) {
	type touch struct {
		id int64
		at time.Duration
	}
	touches := []touch{
		{5, 30}, {3, 10}, {7, 20}, {1, 40}, {6, 25}, {2, 15}, {0, 35}, {4, 5},
	}
	reversed := make([]touch, len(touches))
	for i, tc := range touches {
		reversed[len(touches)-1-i] = tc
	}

	for _, kind := range policy.Kinds {
		victims := func(order []touch) []page.ID {
			var cur time.Duration
			clock := func() time.Duration { return cur }
			// One stripe, so every touch lands in the same buffer and the
			// append order is exactly the call order.
			p := NewStripedWithPolicy(8, 8, testPages, 1, clock, kind)
			for i := 0; i < 8; i++ {
				f := p.TakeFree()
				f.Pg.ID = page.ID(i)
				p.Insert(f, 0)
			}
			buf := make([]byte, 8)
			for _, tc := range order {
				cur = tc.at
				if _, ok := p.ReadLatched(page.ID(tc.id), buf); !ok {
					t.Fatalf("%v: ReadLatched(%d) missed", kind, tc.id)
				}
			}
			var out []page.ID
			for {
				f := p.PopVictim()
				if f == nil {
					break
				}
				out = append(out, f.Pg.ID)
				p.Release(f)
			}
			return out
		}

		fwd := victims(touches)
		rev := victims(reversed)
		if len(fwd) != 8 || len(rev) != 8 {
			t.Fatalf("%v: drained %d and %d victims, want 8", kind, len(fwd), len(rev))
		}
		for i := range fwd {
			if fwd[i] != rev[i] {
				t.Fatalf("%v: victim order depends on touch append order:\n fwd %v\n rev %v", kind, fwd, rev)
			}
		}
	}
}
