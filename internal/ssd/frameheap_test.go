package ssd

import (
	"math/rand"
	"testing"
	"time"
)

// TestFrameHeapMatchesLRU2 feeds one seeded stream to the SSD tier's frame
// heap and compares every victim and pop with a linear scan for the member
// with the smallest (prev, last, frame index). The stream inserts frames,
// moves their (prev, last) history forward and backward, removes them, pops
// victims and re-inserts busy victims with their history unchanged. Times
// come from a range of six values, so equal (prev, last) pairs are common
// and the frame-index tie-break decides.
func TestFrameHeapMatchesLRU2(t *testing.T) {
	const frames = 48
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]frameRec, frames)
		h := &frameHeap{frames: recs}
		in := make([]bool, frames)   // the oracle's members
		scan := func() (int, bool) { // ties go to the lower index, visited first
			best := -1
			for i, r := range recs {
				if !in[i] {
					continue
				}
				if b := &recs[max(best, 0)]; best < 0 || r.prev < b.prev || (r.prev == b.prev && r.last < b.last) {
					best = i
				}
			}
			return best, best >= 0
		}
		at := func() time.Duration { return time.Duration(rng.Intn(6)) }
		set := func(idx int, last, prev time.Duration) {
			recs[idx].last, recs[idx].prev = last, prev
			h.touch(idx)
			in[idx] = true
		}
		pop := func(what string, i int) (int, bool) {
			hv, hok := h.pop()
			cv, cok := scan()
			if hok != cok || hv != cv {
				t.Fatalf("seed %d op %d %s: frame heap (%d, %v), linear scan (%d, %v)", seed, i, what, hv, hok, cv, cok)
			}
			if hok {
				in[hv] = false
			}
			return hv, hok
		}
		for i := 0; i < 4000; i++ {
			idx := rng.Intn(frames)
			r := &recs[idx]
			op := "victim"
			switch k := rng.Intn(8); {
			case k <= 1 && !in[idx]: // insert
				op = "insert"
				prev := never
				if rng.Intn(2) == 0 {
					prev = at()
				}
				set(idx, prev+at(), prev)
			case k <= 2 && in[idx]: // forward: an access
				op = "forward"
				set(idx, r.last+at(), r.last)
			case k == 3 && in[idx]: // backward: an older history
				op = "backward"
				prev := r.prev - at()
				set(idx, min(r.last, prev+at()), prev)
			case k == 4 && in[idx]:
				op = "remove"
				h.remove(idx)
				in[idx] = false
			case k == 5: // pop a victim, then re-insert it as a busy frame
				op = "busy"
				if v, ok := pop("busy pop", i); ok {
					set(v, recs[v].last, recs[v].prev)
				}
			case k == 6:
				op = "pop"
				pop("pop", i)
			}
			hv, hok := h.victim()
			cv, cok := scan()
			if hok != cok || hv != cv {
				t.Fatalf("seed %d op %d (%s): frame heap victim (%d, %v), linear scan (%d, %v)", seed, i, op, hv, hok, cv, cok)
			}
		}
	}
}
