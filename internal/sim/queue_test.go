package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// checkedQueue drives an EventQueue and an oracle side by side: the oracle
// keeps the pending events sorted by (at, seq), clamping pushes to its own
// clock as Push does, so every Pop must return the oracle's first event.
type checkedQueue struct {
	t     *testing.T
	label string
	q     *EventQueue
	want  []event // pending events, sorted by (at, seq)
	seq   uint64
	now   time.Duration
}

func newCheckedQueue(t *testing.T, label string) *checkedQueue {
	return &checkedQueue{t: t, label: label, q: NewEventQueue()}
}

// push schedules at on the queue and records it in the oracle.
func (c *checkedQueue) push(at time.Duration) {
	c.q.Push(at)
	if at < c.now {
		at = c.now
	}
	// Sequence numbers only grow, so the new event sorts after every
	// pending one at or before its time.
	c.seq++
	i := sort.Search(len(c.want), func(i int) bool { return c.want[i].at > at })
	c.want = slices.Insert(c.want, i, event{at: at, seq: c.seq})
	if c.q.Len() != len(c.want) {
		c.t.Fatalf("%s: Len %d after push, want %d", c.label, c.q.Len(), len(c.want))
	}
}

// pop pops one event and requires the oracle's minimum.
func (c *checkedQueue) pop() {
	c.t.Helper()
	at, seq, ok := c.q.Pop()
	if len(c.want) == 0 {
		if ok {
			c.t.Fatalf("%s: empty queue popped (at=%v seq=%d)", c.label, at, seq)
		}
		return
	}
	w := c.want[0]
	if !ok || at != w.at || seq != w.seq {
		c.t.Fatalf("%s: popped (at=%v seq=%d ok=%v), want (at=%v seq=%d)", c.label, at, seq, ok, w.at, w.seq)
	}
	if c.q.Now() != at {
		c.t.Fatalf("%s: clock %v after popping an event at %v", c.label, c.q.Now(), at)
	}
	c.want = c.want[1:]
	c.now = at
}

// drain pops every pending event, then requires an empty queue.
func (c *checkedQueue) drain() {
	c.t.Helper()
	for len(c.want) > 0 {
		c.pop()
	}
	if c.q.Len() != 0 {
		c.t.Fatalf("%s: Len %d after draining", c.label, c.q.Len())
	}
	c.pop()
}

// TestQueueMatchesOracleRandom drives the queue through random push/pop
// workloads and requires the (at, seq) dispatch order. The delay mixes
// cover same-instant ties (FIFO order), sub-device-time jitter,
// device-scale sleeps and far-future events among short ones.
func TestQueueMatchesOracleRandom(t *testing.T) {
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
			return time.Duration(rng.Int63n(int64(10 * time.Second)))
		}},
		{"mixed", func(rng *rand.Rand) time.Duration {
			switch rng.Intn(4) {
			case 0:
				return 0 // same-instant wakeup
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
			c := newCheckedQueue(t, mix.name)
			for op := 0; op < 20000; op++ {
				if c.q.Len() == 0 || rng.Intn(5) < 3 {
					c.push(c.q.Now() + mix.gen(rng))
				} else {
					c.pop()
				}
			}
			c.drain()
		}
	}
}

// TestQueueSameInstantFIFO pins the FIFO guarantee directly: many events
// at the same instant dispatch in push order.
func TestQueueSameInstantFIFO(t *testing.T) {
	c := newCheckedQueue(t, "fifo")
	for i := 0; i < 1000; i++ {
		c.push(5 * time.Millisecond)
	}
	for i := uint64(1); i <= 1000; i++ {
		if w := c.want[0]; w.at != 5*time.Millisecond || w.seq != i {
			t.Fatalf("pop %d: oracle holds (at=%v seq=%d), want FIFO", i, w.at, w.seq)
		}
		c.pop()
	}
	c.drain()
}

// TestQueuePastClampsToNow mirrors Env.schedule's clamp: a push earlier
// than the clock dispatches at the clock, after everything already queued
// there.
func TestQueuePastClampsToNow(t *testing.T) {
	c := newCheckedQueue(t, "clamp")
	c.push(time.Second)
	c.pop()                  // clock now 1s
	c.push(time.Millisecond) // in the past: clamps to 1s
	c.push(time.Second)      // same instant, pushed later
	if c.want[0].at != time.Second {
		t.Fatalf("oracle clamped the past push to %v, want 1s", c.want[0].at)
	}
	c.drain()
}

// TestQueueSparseJumps interleaves long empty stretches of virtual time
// with bursts of close events.
func TestQueueSparseJumps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := newCheckedQueue(t, "sparse")
	for round := 0; round < 200; round++ {
		gap := time.Duration(rng.Int63n(int64(time.Minute)))
		burst := 1 + rng.Intn(8)
		for i := 0; i < burst; i++ {
			jitter := time.Duration(rng.Int63n(int64(time.Millisecond)))
			c.push(c.q.Now() + gap + jitter)
		}
		for i := 0; i < burst; i++ {
			c.pop()
		}
	}
	c.drain()
}

// TestQueueSteadyStateAllocationFree pins the steady state the scheduler
// benchmark measures: with a standing population of 2 048 pending events
// mixing same-instant, sub-millisecond and device-scale delays, a Pop plus
// a Push allocates nothing.
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
	q := NewEventQueue()
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
		t.Errorf("Pop + Push allocates %v per cycle", n)
	}
}
