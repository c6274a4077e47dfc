package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	env := NewEnv()
	if env.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", env.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv()
	var woke time.Duration
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Millisecond)
		woke = p.Now()
	})
	env.Run(-1)
	if woke != 42*time.Millisecond {
		t.Fatalf("woke at %v, want 42ms", woke)
	}
	if env.Now() != 42*time.Millisecond {
		t.Fatalf("env.Now() = %v, want 42ms", env.Now())
	}
}

func TestSleepNegativeIsZero(t *testing.T) {
	env := NewEnv()
	env.Go("p", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced time to %v", p.Now())
		}
	})
	env.Run(-1)
}

func TestSequentialSleeps(t *testing.T) {
	env := NewEnv()
	var times []time.Duration
	env.Go("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * time.Millisecond)
			times = append(times, p.Now())
		}
	})
	env.Run(-1)
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("wake %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestInterleavedProcesses(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Go("a", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		order = append(order, "a10")
		p.Sleep(20 * time.Millisecond)
		order = append(order, "a30")
	})
	env.Go("b", func(p *Proc) {
		p.Sleep(15 * time.Millisecond)
		order = append(order, "b15")
		p.Sleep(10 * time.Millisecond)
		order = append(order, "b25")
	})
	env.Run(-1)
	want := []string{"a10", "b15", "b25", "a30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsAreFIFO(t *testing.T) {
	env := NewEnv()
	var order []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		env.Go(name, func(p *Proc) {
			p.Sleep(time.Millisecond)
			order = append(order, name)
		})
	}
	env.Run(-1)
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunUntilPausesClock(t *testing.T) {
	env := NewEnv()
	hits := 0
	env.Go("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(10 * time.Millisecond)
			hits++
		}
	})
	got := env.Run(35 * time.Millisecond)
	if got != 35*time.Millisecond {
		t.Fatalf("Run returned %v, want 35ms", got)
	}
	if hits != 3 {
		t.Fatalf("hits = %d, want 3", hits)
	}
	env.Run(-1)
	if hits != 10 {
		t.Fatalf("after resume hits = %d, want 10", hits)
	}
	env.Shutdown()
}

func TestRunAdvancesToUntilWhenIdle(t *testing.T) {
	env := NewEnv()
	got := env.Run(time.Second)
	if got != time.Second {
		t.Fatalf("Run on idle env returned %v, want 1s", got)
	}
}

func TestGoFromInsideProcess(t *testing.T) {
	env := NewEnv()
	var childRan bool
	env.Go("parent", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		env.Go("child", func(c *Proc) {
			c.Sleep(5 * time.Millisecond)
			childRan = true
			if c.Now() != 10*time.Millisecond {
				t.Errorf("child woke at %v, want 10ms", c.Now())
			}
		})
	})
	env.Run(-1)
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestDoneSignal(t *testing.T) {
	env := NewEnv()
	var joinedAt time.Duration
	worker := env.Go("worker", func(p *Proc) {
		p.Sleep(30 * time.Millisecond)
	})
	env.Go("joiner", func(p *Proc) {
		worker.Done().WaitFired(p)
		joinedAt = p.Now()
	})
	env.Run(-1)
	if joinedAt != 30*time.Millisecond {
		t.Fatalf("joined at %v, want 30ms", joinedAt)
	}
}

func TestDoneWaitFiredAfterExit(t *testing.T) {
	env := NewEnv()
	worker := env.Go("worker", func(p *Proc) {})
	env.Run(-1)
	joined := false
	env.Go("late", func(p *Proc) {
		worker.Done().WaitFired(p)
		joined = true
	})
	env.Run(-1)
	if !joined {
		t.Fatal("WaitFired blocked on already-done process")
	}
}

func TestSignalBroadcastWakesAllWaiters(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	woke := 0
	for i := 0; i < 5; i++ {
		env.Go("waiter", func(p *Proc) {
			sig.Wait(p)
			woke++
		})
	}
	env.Go("caster", func(p *Proc) {
		p.Sleep(time.Millisecond)
		sig.Broadcast()
	})
	env.Run(-1)
	if woke != 5 {
		t.Fatalf("woke = %d, want 5", woke)
	}
}

func TestSignalWaitBlocksUntilNextBroadcast(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	sig.Broadcast() // fire before anyone waits
	var wokeAt time.Duration
	env.Go("waiter", func(p *Proc) {
		sig.Wait(p) // plain Wait ignores past broadcasts
		wokeAt = p.Now()
	})
	env.Go("caster", func(p *Proc) {
		p.Sleep(7 * time.Millisecond)
		sig.Broadcast()
	})
	env.Run(-1)
	if wokeAt != 7*time.Millisecond {
		t.Fatalf("woke at %v, want 7ms", wokeAt)
	}
}

func TestResourceSerializes(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	var finish []time.Duration
	for i := 0; i < 3; i++ {
		env.Go("user", func(p *Proc) {
			res.Acquire(p)
			p.Sleep(10 * time.Millisecond)
			res.Release()
			finish = append(finish, p.Now())
		})
	}
	env.Run(-1)
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 2)
	var finish []time.Duration
	for i := 0; i < 4; i++ {
		env.Go("user", func(p *Proc) {
			res.Acquire(p)
			p.Sleep(10 * time.Millisecond)
			res.Release()
			finish = append(finish, p.Now())
		})
	}
	env.Run(-1)
	// Two run 0-10ms, two run 10-20ms.
	want := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceFIFO(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.Go("user", func(p *Proc) {
			res.Acquire(p)
			p.Sleep(time.Millisecond)
			order = append(order, i)
			res.Release()
		})
	}
	env.Run(-1)
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestResourcePendingCountsHoldersAndWaiters(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	var snapshot int
	for i := 0; i < 3; i++ {
		env.Go("user", func(p *Proc) {
			res.Acquire(p)
			p.Sleep(10 * time.Millisecond)
			res.Release()
		})
	}
	env.Go("observer", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		snapshot = res.Pending()
	})
	env.Run(-1)
	if snapshot != 3 {
		t.Fatalf("Pending = %d at t=5ms, want 3", snapshot)
	}
}

func TestShutdownUnwindsBlockedProcesses(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	cleaned := 0
	for i := 0; i < 3; i++ {
		env.Go("user", func(p *Proc) {
			defer func() {
				cleaned++
				if r := recover(); r != nil {
					panic(r) // re-panic ErrStopped so the kernel sees it
				}
			}()
			res.Acquire(p)
			p.Sleep(time.Hour)
			res.Release()
		})
	}
	env.Run(time.Minute)
	if env.Live() != 3 {
		t.Fatalf("Live = %d, want 3", env.Live())
	}
	env.Shutdown()
	if env.Live() != 0 {
		t.Fatalf("Live = %d after Shutdown, want 0", env.Live())
	}
	if cleaned != 3 {
		t.Fatalf("cleaned = %d, want 3 (defers must run)", cleaned)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	env := NewEnv()
	env.Shutdown()
	env.Shutdown()
}

func TestYieldRunsOtherSameInstantEvents(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	env.Go("b", func(p *Proc) {
		order = append(order, "b")
	})
	env.Run(-1)
	want := []string{"a1", "b", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestManyProcessesDeterministic(t *testing.T) {
	run := func() []time.Duration {
		env := NewEnv()
		res := NewResource(env, 3)
		var out []time.Duration
		for i := 0; i < 50; i++ {
			i := i
			env.Go("w", func(p *Proc) {
				p.Sleep(time.Duration(i%7) * time.Millisecond)
				res.Acquire(p)
				p.Sleep(time.Duration(1+i%3) * time.Millisecond)
				res.Release()
				out = append(out, p.Now())
			})
		}
		env.Run(-1)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for a single-server resource with fixed service time s and n
// eager customers, the i-th completion happens at (i+1)*s — i.e. the
// resource behaves as an exact FIFO queue.
func TestResourceQueueProperty(t *testing.T) {
	prop := func(nRaw uint8, sRaw uint8) bool {
		n := int(nRaw%20) + 1
		s := time.Duration(int(sRaw%50)+1) * time.Millisecond
		env := NewEnv()
		res := NewResource(env, 1)
		var finish []time.Duration
		for i := 0; i < n; i++ {
			env.Go("c", func(p *Proc) {
				res.Acquire(p)
				p.Sleep(s)
				res.Release()
				finish = append(finish, p.Now())
			})
		}
		env.Run(-1)
		if len(finish) != n {
			return false
		}
		for i, f := range finish {
			if f != time.Duration(i+1)*s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: completion times of independent sleepers sort to the multiset of
// their durations — the clock never reorders or loses events.
func TestSleepCompletionProperty(t *testing.T) {
	prop := func(ds []uint16) bool {
		if len(ds) > 64 {
			ds = ds[:64]
		}
		env := NewEnv()
		got := map[time.Duration]int{}
		for _, d := range ds {
			d := time.Duration(d) * time.Microsecond
			env.Go("s", func(p *Proc) {
				p.Sleep(d)
				got[p.Now()]++
			})
		}
		env.Run(-1)
		want := map[time.Duration]int{}
		for _, d := range ds {
			want[time.Duration(d)*time.Microsecond]++
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSleepDispatch(b *testing.B) {
	env := NewEnv()
	env.Go("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	env.Run(-1)
}
