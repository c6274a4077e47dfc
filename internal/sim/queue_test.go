package sim

import (
	"math/rand"
	"testing"
	"time"
)

// drainBoth pops every remaining event from both queues, requiring the
// identical (at, seq) dispatch sequence.
func drainBoth(t *testing.T, label string, cal, heap *EventQueue) {
	t.Helper()
	for cal.Len() > 0 || heap.Len() > 0 {
		compareOnePop(t, label, cal, heap)
	}
}

// compareOnePop pops one event from each queue and compares.
func compareOnePop(t *testing.T, label string, cal, heap *EventQueue) {
	t.Helper()
	ca, cs, cok := cal.Pop()
	ha, hs, hok := heap.Pop()
	if cok != hok {
		t.Fatalf("%s: calendar pop ok=%v, heap pop ok=%v", label, cok, hok)
	}
	if !cok {
		return
	}
	if ca != ha || cs != hs {
		t.Fatalf("%s: calendar dispatched (at=%v seq=%d), heap (at=%v seq=%d)",
			label, ca, cs, ha, hs)
	}
}

// TestCalendarMatchesHeapRandom drives the calendar queue and the reference
// binary heap through identical random push/pop workloads and requires
// identical (at, seq) dispatch orders. The delay mix covers same-instant
// ties (FIFO order), sub-bucket jitter, multi-bucket sleeps and far-future
// events that land in the overflow heap.
func TestCalendarMatchesHeapRandom(t *testing.T) {
	delayMixes := []struct {
		name string
		gen  func(rng *rand.Rand) time.Duration
	}{
		{"ties", func(rng *rand.Rand) time.Duration {
			return time.Duration(rng.Intn(3)) * time.Millisecond
		}},
		{"subBucket", func(rng *rand.Rand) time.Duration {
			return time.Duration(rng.Int63n(int64(50 * time.Microsecond)))
		}},
		{"deviceLike", func(rng *rand.Rand) time.Duration {
			return time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
		}},
		{"farFuture", func(rng *rand.Rand) time.Duration {
			// Well past the ~67ms wheel horizon: exercises overflow and
			// its migration back into the wheel as the cursor advances.
			return time.Duration(rng.Int63n(int64(10 * time.Second)))
		}},
		{"mixed", func(rng *rand.Rand) time.Duration {
			switch rng.Intn(4) {
			case 0:
				return 0 // same-instant wakeup (ring fast path)
			case 1:
				return time.Duration(rng.Int63n(int64(time.Millisecond)))
			case 2:
				return time.Duration(rng.Int63n(int64(100 * time.Millisecond)))
			default:
				return time.Duration(rng.Int63n(int64(30 * time.Second)))
			}
		}},
	}
	for _, mix := range delayMixes {
		for seed := int64(0); seed < 5; seed++ {
			rng := rand.New(rand.NewSource(0xca1 + seed))
			cal := NewEventQueue(true)
			heap := NewEventQueue(false)
			for op := 0; op < 20000; op++ {
				if cal.Len() == 0 || rng.Intn(5) < 3 {
					d := mix.gen(rng)
					cal.Push(cal.Now() + d)
					heap.Push(heap.Now() + d)
				} else {
					compareOnePop(t, mix.name, cal, heap)
				}
				if cal.Len() != heap.Len() {
					t.Fatalf("%s: Len diverged: calendar %d, heap %d", mix.name, cal.Len(), heap.Len())
				}
			}
			drainBoth(t, mix.name, cal, heap)
		}
	}
}

// TestCalendarSameInstantFIFO pins the FIFO guarantee directly: many events
// at the same instant dispatch in push order.
func TestCalendarSameInstantFIFO(t *testing.T) {
	cal := NewEventQueue(true)
	heap := NewEventQueue(false)
	for i := 0; i < 1000; i++ {
		cal.Push(5 * time.Millisecond)
		heap.Push(5 * time.Millisecond)
	}
	var prevSeq uint64
	for i := 0; i < 1000; i++ {
		at, seq, ok := cal.Pop()
		if !ok || at != 5*time.Millisecond {
			t.Fatalf("pop %d: at=%v ok=%v", i, at, ok)
		}
		if i > 0 && seq != prevSeq+1 {
			t.Fatalf("pop %d: seq %d after %d, want FIFO", i, seq, prevSeq)
		}
		prevSeq = seq
		if ha, hs, hok := heap.Pop(); !hok || ha != at || hs != seq {
			t.Fatalf("pop %d: heap dispatched (at=%v seq=%d ok=%v), calendar (at=%v seq=%d)",
				i, ha, hs, hok, at, seq)
		}
	}
}

// TestCalendarPastClampsToNow mirrors Env.schedule's clamp: a push earlier
// than the clock dispatches at the clock, after everything already queued
// there.
func TestCalendarPastClampsToNow(t *testing.T) {
	cal := NewEventQueue(true)
	heap := NewEventQueue(false)
	cal.Push(time.Second)
	heap.Push(time.Second)
	cal.Pop() // clock now 1s
	heap.Pop()
	cal.Push(time.Millisecond) // in the past: clamps to 1s
	heap.Push(time.Millisecond)
	cal.Push(time.Second) // same instant, pushed later
	heap.Push(time.Second)
	drainBoth(t, "clamp", cal, heap)
}

// TestCalendarSparseJumps exercises long empty stretches (cursor jumps via
// the occupancy bitmap and overflow-only states) interleaved with bursts.
func TestCalendarSparseJumps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cal := NewEventQueue(true)
	heap := NewEventQueue(false)
	for round := 0; round < 200; round++ {
		gap := time.Duration(rng.Int63n(int64(time.Minute)))
		burst := 1 + rng.Intn(8)
		for i := 0; i < burst; i++ {
			jitter := time.Duration(rng.Int63n(int64(time.Millisecond)))
			cal.Push(cal.Now() + gap + jitter)
			heap.Push(heap.Now() + gap + jitter)
		}
		for i := 0; i < burst; i++ {
			compareOnePop(t, "sparse", cal, heap)
		}
	}
	drainBoth(t, "sparse", cal, heap)
}

// TestQueueSteadyStateAllocationFree pins the steady state the scheduler
// benchmarks measure: with a standing population of pending events mixing
// same-instant, sub-bucket and device-scale delays, a Pop plus a Push
// allocates nothing, in the calendar queue and the reference heap alike.
func TestQueueSteadyStateAllocationFree(t *testing.T) {
	delay := func(i int) time.Duration {
		switch i & 3 {
		case 0:
			return 0
		case 1:
			return time.Duration(i%97) * time.Microsecond
		default:
			return time.Duration(i%11) * time.Millisecond
		}
	}
	for _, calendar := range []bool{true, false} {
		q := NewEventQueue(calendar)
		i := 0
		for ; i < 2048; i++ {
			q.Push(q.Now() + delay(i))
		}
		cycle := func() {
			q.Pop()
			q.Push(q.Now() + delay(i))
			i++
		}
		if n := testing.AllocsPerRun(2000, cycle); n != 0 {
			t.Errorf("calendar=%v: Pop + Push allocates %v per cycle", calendar, n)
		}
	}
}
