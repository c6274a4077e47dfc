package sim

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// noGoroutinesSince fails the test if more goroutines are alive than at
// baseline once exiting ones had a moment to finish.
func noGoroutinesSince(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; i < 100 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines: %d, baseline %d", n, baseline)
	}
}

// TestProcPanicSurfacesInRun: a panic in a Go process comes out of Run, on
// the goroutine that called it, under the process's name; the environment
// is left runnable, and Shutdown still unwinds the bystanders.
func TestProcPanicSurfacesInRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	env := NewEnv()
	sig := NewSignal(env)
	env.Go("bystander", func(p *Proc) { sig.Wait(p) })
	bad := env.Go("bad", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		panic("boom")
	})
	msg := recovered(func() { env.Run(-1) })
	if want := `sim: process "bad" panicked: boom`; msg != want {
		t.Fatalf("Run panicked with %q, want %q", msg, want)
	}
	if env.Live() != 1 || !bad.Done().Fired() {
		t.Fatalf("live = %d, bad done = %v; want the bystander alone and true", env.Live(), bad.Done().Fired())
	}
	if msg := recovered(func() { env.Run(-1) }); msg != "" {
		t.Fatalf("Run after a process panic: %q", msg)
	}
	env.Shutdown()
	if env.Live() != 0 {
		t.Fatalf("live = %d after Shutdown", env.Live())
	}
	noGoroutinesSince(t, baseline)
}

// TestProcPanicSurfacesInCall: the same under Call — whichever caller's
// dispatch loop resumed the process gets the panic, and the next Call works.
// The second process panics inside an Await completion that the first raises
// on its own goroutine, so the panic crosses both on its way out.
func TestProcPanicSurfacesInCall(t *testing.T) {
	baseline := runtime.NumGoroutine()
	env := NewEnv()
	var wake func(error)
	env.Go("wakee", func(p *Proc) {
		p.Await(func(_ *Task, done func(error)) { wake = done })
		panic("boom")
	})
	env.Go("waker", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		wake(nil)
	})
	msg := recovered(func() {
		env.Call("op", func(p *Proc) { p.Sleep(time.Millisecond) })
	})
	if !strings.Contains(msg, `process "waker" panicked: sim: process "wakee" panicked: boom`) {
		t.Fatalf("Call panicked with %q, want wakee's panic passed through waker", msg)
	}
	if env.Live() != 0 {
		t.Fatalf("live = %d, want both processes gone", env.Live())
	}
	ran := false
	env.Call("again", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ran = true
	})
	if !ran {
		t.Fatal("Call after a process panic did not run its body")
	}
	env.Shutdown()
	noGoroutinesSince(t, baseline)
}

// TestProcGoexitEndsResumer: runtime.Goexit in a process (t.Fatal is one)
// ends the goroutine that called Run, whose deferred Shutdown then unwinds
// the others: nothing is left behind.
func TestProcGoexitEndsResumer(t *testing.T) {
	baseline := runtime.NumGoroutine()
	env := NewEnv()
	sig := NewSignal(env)
	env.Go("bystander", func(p *Proc) { sig.Wait(p) })
	env.Go("quitter", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		runtime.Goexit()
	})
	returned := false
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		defer env.Shutdown()
		env.Run(-1)
		returned = true
	}()
	<-ended
	if returned || env.Live() != 0 {
		t.Fatalf("Run returned = %v, live = %d; want false and 0", returned, env.Live())
	}
	noGoroutinesSince(t, baseline)
}

// TestShutdownBeforeFirstDispatch: a process that was started but never
// dispatched is ended by Shutdown without running its function.
func TestShutdownBeforeFirstDispatch(t *testing.T) {
	baseline := runtime.NumGoroutine()
	env := NewEnv()
	ran := false
	p := env.Go("idle", func(*Proc) { ran = true })
	env.Shutdown()
	if ran || env.Live() != 0 || p.Done().Fired() {
		t.Fatalf("ran = %v, live = %d, done = %v; want false 0 false", ran, env.Live(), p.Done().Fired())
	}
	noGoroutinesSince(t, baseline)
}

// TestProcResumedFromManyGoroutines is the facade's pattern under the race
// detector: one long-lived Go process (the cleaner) is woken and resumed by
// whichever goroutine holds the partition, through successive Calls.
func TestProcResumedFromManyGoroutines(t *testing.T) {
	const callers, calls = 8, 200
	env := NewEnv()
	work := NewSignal(env)
	cleaned := 0
	env.Go("cleaner", func(p *Proc) {
		for {
			work.Wait(p)
			p.Sleep(500 * time.Microsecond)
			cleaned++
		}
	})
	var mu sync.Mutex // the partition mutex
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				mu.Lock()
				env.Call("op", func(p *Proc) {
					work.Broadcast()
					p.Sleep(time.Millisecond)
				})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// The first broadcast finds the cleaner not yet started; every later one
	// is a full cycle inside that Call.
	if want := callers*calls - 1; cleaned != want || env.Now() != callers*calls*time.Millisecond {
		t.Fatalf("cleaned %d at %v, want %d at %v", cleaned, env.Now(), want, callers*calls*time.Millisecond)
	}
	env.Shutdown()
}

// BenchmarkProcSwitch measures one resume of a Go process: the scheduler
// switches to it and it parks again. Two processes sleep to the same
// instants, so every dispatch switches to the other one.
func BenchmarkProcSwitch(b *testing.B) {
	env := NewEnv()
	for _, name := range []string{"a", "b"} {
		env.Go(name, func(p *Proc) {
			for i := 0; i < b.N; i += 2 {
				p.Sleep(time.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(-1)
}

// TestProcSwitchAllocationFree pins the steady state BenchmarkProcSwitch
// measures: resuming a parked process and parking it again allocates
// nothing.
func TestProcSwitchAllocationFree(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	for _, name := range []string{"a", "b"} {
		env.Go(name, func(p *Proc) {
			for {
				p.Sleep(time.Microsecond)
			}
		})
	}
	step := func() { env.Run(env.Now() + time.Microsecond) } // resumes both
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("a process switch allocates %v per pair of resumes", n)
	}
}
