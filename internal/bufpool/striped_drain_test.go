package bufpool

import (
	"testing"
	"time"

	"turbobp/internal/page"
)

// TestStripedDrainDeterministicOrder pins the drain-order fix: buffered
// latched-read touches must replay into the replacement policy in (at, id)
// order, not in the append order of the concurrent ReadLatched callers
// (which is scheduling-dependent). Two pools observe the same (id, at)
// touch set appended in opposite orders; their victim sequences must
// match. CFLRU makes append-order leaks visible — its recency list
// records replayed Touches in call order, whatever times they carry —
// but the property must hold for every policy. The pool's own tick stamps a
// ReadLatched call in call order, so the test buffers the touches through
// the stripe's record, the step of ReadLatched that takes the stamp.
func TestStripedDrainDeterministicOrder(t *testing.T) {
	type touch struct {
		id int64
		at time.Duration
	}
	// Ids i*stripeCount share stripe 0, so every touch lands in the same
	// buffer and its append order is exactly the record order. The times
	// are above the inserts' ticks, as a later read's would be.
	touches := []touch{
		{5, 30}, {3, 10}, {7, 20}, {1, 40}, {6, 25}, {2, 15}, {0, 35}, {4, 5},
	}
	for i := range touches {
		touches[i].id *= stripeCount
		touches[i].at += 100
	}
	reversed := make([]touch, len(touches))
	for i, tc := range touches {
		reversed[len(touches)-1-i] = tc
	}

	for _, kind := range Kinds {
		victims := func(order []touch) []page.ID {
			p := NewStriped(8, 8, testPages, kind)
			for i := 0; i < 8; i++ {
				f := p.TakeFree()
				f.Pg.ID = page.ID(i * stripeCount)
				p.Insert(f, 0)
			}
			for _, tc := range order {
				p.stripeOf(page.ID(tc.id)).record(tc.id, tc.at)
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
