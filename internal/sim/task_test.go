package sim

import (
	"runtime"
	"testing"
	"time"
)

func TestSpawnRunsLikeGo(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Go("p", func(p *Proc) { order = append(order, "proc") })
	env.Spawn("t", func(task *Task) { order = append(order, "task") })
	env.Run(-1)
	if len(order) != 2 || order[0] != "proc" || order[1] != "task" {
		t.Fatalf("order = %v, want [proc task]", order)
	}
}

func TestTaskSleepAdvancesClock(t *testing.T) {
	env := NewEnv()
	var woke time.Duration
	env.Spawn("t", func(task *Task) {
		task.Sleep(5*time.Millisecond, func() {
			woke = task.Now()
			task.Sleep(3*time.Millisecond, func() {
				woke = task.Now()
			})
		})
	})
	env.Run(-1)
	if woke != 8*time.Millisecond {
		t.Fatalf("woke at %v, want 8ms", woke)
	}
}

func TestTaskSleepNegativeIsZero(t *testing.T) {
	env := NewEnv()
	var woke time.Duration = -1
	env.Spawn("t", func(task *Task) {
		task.Sleep(-time.Second, func() { woke = task.Now() })
	})
	env.Run(-1)
	if woke != 0 {
		t.Fatalf("woke at %v, want 0", woke)
	}
}

// TestTaskProcSameInstantFIFO pins the FIFO tie-break across forms: events
// scheduled for the same instant run in scheduling order regardless of
// which process form scheduled them.
func TestTaskProcSameInstantFIFO(t *testing.T) {
	env := NewEnv()
	var order []int
	env.Go("p1", func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, 1)
	})
	env.Spawn("t2", func(task *Task) {
		task.Sleep(time.Millisecond, func() { order = append(order, 2) })
	})
	env.Go("p3", func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, 3)
	})
	env.Run(-1)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestAcquireFuncInlineWhenFree(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	ran := false
	env.Spawn("t", func(task *Task) {
		r.AcquireFunc(func() { ran = true })
	})
	env.Run(-1)
	if !ran {
		t.Fatal("AcquireFunc with a free unit did not run its continuation")
	}
	if r.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (held unit)", r.Pending())
	}
}

// TestAcquireFuncFIFOWithProcs interleaves blocking and continuation
// waiters on one resource and checks strict FIFO grant order.
func TestAcquireFuncFIFOWithProcs(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	var order []int
	env.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(time.Millisecond)
		order = append(order, 0)
		r.Release()
	})
	env.Go("w1", func(p *Proc) {
		p.Sleep(time.Microsecond) // queue after the holder owns the unit
		r.Acquire(p)
		order = append(order, 1)
		r.Release()
	})
	env.Spawn("w2", func(task *Task) {
		task.Sleep(2*time.Microsecond, func() {
			r.AcquireFunc(func() {
				order = append(order, 2)
				r.Release()
			})
		})
	})
	env.Go("w3", func(p *Proc) {
		p.Sleep(3 * time.Microsecond)
		r.Acquire(p)
		order = append(order, 3)
		r.Release()
	})
	env.Run(-1)
	if len(order) != 4 {
		t.Fatalf("order = %v, want 4 grants", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order = %v, want [0 1 2 3]", order)
		}
	}
}

func TestSignalWaitFunc(t *testing.T) {
	env := NewEnv()
	s := NewSignal(env)
	ran := 0
	env.Spawn("w", func(task *Task) {
		s.WaitFunc(func() { ran++ })
	})
	env.Go("b", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Broadcast()
		p.Sleep(time.Millisecond)
		s.Broadcast() // second broadcast must not re-run the waiter
	})
	env.Run(-1)
	if ran != 1 {
		t.Fatalf("waiter ran %d times, want 1", ran)
	}
}

func TestSignalWaitFiredFuncInline(t *testing.T) {
	env := NewEnv()
	s := NewSignal(env)
	var at time.Duration = -1
	env.Go("b", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Broadcast()
	})
	env.Spawn("w", func(task *Task) {
		task.Sleep(2*time.Millisecond, func() {
			s.WaitFiredFunc(func() { at = task.Now() })
		})
	})
	env.Run(-1)
	if at != 2*time.Millisecond {
		t.Fatalf("fired waiter ran at %v, want inline at 2ms", at)
	}
}

// TestDispatchedCountsSleeps checks that the events/sec figure the scale
// sweep reports counts every sleep as one event.
func TestDispatchedCountsSleeps(t *testing.T) {
	env := NewEnv()
	env.Spawn("t", func(task *Task) {
		task.Sleep(time.Millisecond, func() {
			task.Sleep(time.Millisecond, func() {})
		})
	})
	env.Run(-1)
	// One dispatch for the spawn, one for each sleep.
	if got := env.Dispatched(); got != 3 {
		t.Fatalf("Dispatched() = %d, want 3", got)
	}
}

// TestTaskChainDoesNotNest: every wakeup returns to the scheduler's loop, so
// a task that sleeps back to back runs each continuation at the same stack
// depth however long the chain.
func TestTaskChainDoesNotNest(t *testing.T) {
	env := NewEnv()
	pcs := make([]uintptr, 4096)
	depths := map[int]int{}
	env.Spawn("t", func(task *Task) {
		n := 0
		var step func()
		step = func() {
			depths[runtime.Callers(0, pcs)]++
			if n++; n < 1000 {
				task.Sleep(time.Microsecond, step)
			}
		}
		task.Sleep(time.Microsecond, step)
	})
	env.Run(-1)
	if len(depths) != 1 {
		t.Fatalf("the 1000 wakeups ran at %d different stack depths, want 1", len(depths))
	}
}
