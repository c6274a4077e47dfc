package ssd

import (
	"math/rand"
	"testing"
	"time"

	"turbobp/internal/policy"
)

// TestFrameHeapMatchesLRU2 feeds one seeded stream to the SSD tier's frame
// heap and to policy.LRU2Cache keyed by frame index, and compares every
// Victim and Pop. The stream inserts frames, moves their (prev, last)
// history forward and backward, removes them, pops victims and re-inserts
// busy victims with their history unchanged. Times come from a range of
// six values, so equal (prev, last) pairs are common and the frame-index
// tie-break decides.
func TestFrameHeapMatchesLRU2(t *testing.T) {
	const frames = 48
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]frameRec, frames)
		h := &frameHeap{frames: recs}
		c := policy.NewLRU2(frames)
		at := func() time.Duration { return time.Duration(rng.Intn(6)) }
		set := func(idx int, last, prev time.Duration) {
			recs[idx].last, recs[idx].prev = last, prev
			h.touch(idx)
			c.TouchHistory(int64(idx), last, prev)
		}
		for i := 0; i < 4000; i++ {
			idx := rng.Intn(frames)
			r := &recs[idx]
			in := c.Contains(int64(idx))
			op := "victim"
			switch k := rng.Intn(8); {
			case k <= 1 && !in: // insert
				op = "insert"
				prev := policy.Never()
				if rng.Intn(2) == 0 {
					prev = at()
				}
				set(idx, prev+at(), prev)
			case k <= 2 && in: // forward: an access
				op = "forward"
				set(idx, r.last+at(), r.last)
			case k == 3 && in: // backward: an older history
				op = "backward"
				prev := r.prev - at()
				set(idx, min(r.last, prev+at()), prev)
			case k == 4 && in:
				op = "remove"
				h.remove(idx)
				c.Remove(int64(idx))
			case k == 5: // pop a victim, then re-insert it as a busy frame
				op = "busy"
				hv, hok := h.pop()
				cv, cok := c.Pop()
				if hok != cok || (hok && int64(hv) != cv) {
					t.Fatalf("seed %d op %d busy pop: frame heap (%d, %v), LRU2Cache (%d, %v)", seed, i, hv, hok, cv, cok)
				}
				if hok {
					set(hv, recs[hv].last, recs[hv].prev)
				}
			case k == 6:
				op = "pop"
				hv, hok := h.pop()
				cv, cok := c.Pop()
				if hok != cok || (hok && int64(hv) != cv) {
					t.Fatalf("seed %d op %d pop: frame heap (%d, %v), LRU2Cache (%d, %v)", seed, i, hv, hok, cv, cok)
				}
			}
			hv, hok := h.victim()
			cv, cok := c.Victim()
			if hok != cok || (hok && int64(hv) != cv) {
				t.Fatalf("seed %d op %d (%s): frame heap victim (%d, %v), LRU2Cache (%d, %v)", seed, i, op, hv, hok, cv, cok)
			}
		}
	}
}
