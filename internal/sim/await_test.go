package sim

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

type dispatchRec struct {
	at  time.Duration
	seq uint64
}

// traceEnv returns an environment that records every queue dispatch.
func traceEnv() (*Env, *[]dispatchRec) {
	env := NewEnv()
	var trace []dispatchRec
	env.SetDispatchHook(func(at time.Duration, seq uint64) {
		trace = append(trace, dispatchRec{at, seq})
	})
	return env, &trace
}

// TestAwaitSyncCompletionNeverParks: a completion that runs inside start
// returns its error to the caller with no dispatch in between.
func TestAwaitSyncCompletionNeverParks(t *testing.T) {
	env, trace := traceEnv()
	boom := errors.New("boom")
	var got error
	var before, after int
	env.Go("p", func(p *Proc) {
		before = len(*trace)
		got = p.Await(func(task *Task, done func(error)) {
			if task.Env() != env || task.Name() != "p" {
				t.Errorf("Await task = (%v, %q), want the process's own", task.Env(), task.Name())
			}
			done(boom)
		})
		after = len(*trace)
	})
	env.Run(-1)
	if got != boom {
		t.Fatalf("Await returned %v, want %v", got, boom)
	}
	if before != after || len(*trace) != 1 {
		t.Fatalf("dispatches: %d before, %d after, %d total; want no dispatch besides the process start", before, after, len(*trace))
	}
}

// TestAwaitMatchesBlockingPrimitives runs the same contended scenario —
// sleeps, a capacity-1 resource and a signal — once with the blocking
// primitives and once with their task forms under Await, and requires the
// identical (at, seq) dispatch trace and completion order.
func TestAwaitMatchesBlockingPrimitives(t *testing.T) {
	run := func(bridged bool) ([]dispatchRec, []string) {
		env, trace := traceEnv()
		res := NewResource(env, 1)
		sig := NewSignal(env)
		var order []string
		sleep := func(p *Proc, d time.Duration) {
			if !bridged {
				p.Sleep(d)
				return
			}
			p.Await(func(task *Task, done func(error)) { task.Sleep(d, func() { done(nil) }) })
		}
		acquire := func(p *Proc) {
			if !bridged {
				res.Acquire(p)
				return
			}
			p.Await(func(_ *Task, done func(error)) { res.AcquireFunc(func() { done(nil) }) })
		}
		wait := func(p *Proc) {
			if !bridged {
				sig.Wait(p)
				return
			}
			p.Await(func(_ *Task, done func(error)) { sig.WaitFunc(func() { done(nil) }) })
		}
		for i, name := range []string{"a", "b", "c"} {
			i, name := i, name
			env.Go(name, func(p *Proc) {
				sleep(p, time.Duration(i)*time.Microsecond)
				acquire(p)
				sleep(p, 5*time.Microsecond)
				res.Release()
				order = append(order, name+"-served")
				wait(p)
				order = append(order, name+"-signalled")
			})
		}
		env.Go("signaller", func(p *Proc) {
			sleep(p, 50*time.Microsecond)
			sig.Broadcast()
		})
		env.Run(-1)
		env.Shutdown()
		return *trace, order
	}
	blockTrace, blockOrder := run(false)
	awaitTrace, awaitOrder := run(true)
	if !reflect.DeepEqual(blockOrder, awaitOrder) || len(blockOrder) != 6 {
		t.Fatalf("completion order differs:\nblocking %v\nawait    %v", blockOrder, awaitOrder)
	}
	if !reflect.DeepEqual(blockTrace, awaitTrace) {
		t.Fatalf("dispatch traces differ:\nblocking %v\nawait    %v", blockTrace, awaitTrace)
	}
}

// TestAwaitWokenFromAnotherProcess is the recovery-bridge shape: the
// completion runs on a second process's goroutine while the scheduler is
// itself waiting for that process. The wakee must run at once and hand
// control back to its waker, not to the scheduler.
func TestAwaitWokenFromAnotherProcess(t *testing.T) {
	baseline := runtime.NumGoroutine()
	env, trace := traceEnv()
	sig := NewSignal(env)
	var order []string
	var wake func(error)
	boom := errors.New("boom")
	env.Go("wakee", func(p *Proc) {
		err := p.Await(func(_ *Task, done func(error)) { wake = done })
		order = append(order, "wakee-resumed:"+err.Error())
		sig.Wait(p) // parks again: control returns to the waker
		order = append(order, "wakee-signalled")
	})
	wakeDispatches := -1
	env.Go("waker", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		order = append(order, "waker-wakes")
		before := len(*trace)
		wake(boom)
		wakeDispatches = len(*trace) - before
		order = append(order, "waker-continues")
		p.Sleep(10 * time.Microsecond)
		sig.Broadcast()
		order = append(order, "waker-done")
	})
	env.Run(-1)
	want := []string{"waker-wakes", "wakee-resumed:boom", "waker-continues", "waker-done", "wakee-signalled"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v\nwant    %v", order, want)
	}
	if wakeDispatches != 0 {
		t.Fatalf("waking the awaiting process dispatched %d events, want 0", wakeDispatches)
	}
	if env.Live() != 0 {
		t.Fatalf("live = %d after Run, want 0", env.Live())
	}
	env.Shutdown()
	for i := 0; i < 100 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines: %d after Shutdown, baseline %d", n, baseline)
	}
}

// TestAwaitShutdownUnwinds: Shutdown unwinds a process parked in Await with
// ErrStopped, like any other blocked process.
func TestAwaitShutdownUnwinds(t *testing.T) {
	env := NewEnv()
	unwound, returned := false, false
	env.Go("p", func(p *Proc) {
		defer func() { unwound = true }()
		p.Await(func(*Task, func(error)) {}) // never completed
		returned = true
	})
	env.Run(-1)
	if env.Live() != 1 {
		t.Fatalf("live = %d, want the awaiting process", env.Live())
	}
	env.Shutdown()
	if !unwound || returned || env.Live() != 0 {
		t.Fatalf("unwound=%v returned=%v live=%d, want true false 0", unwound, returned, env.Live())
	}
}

// TestAwaitNilProc: with no process the task runs inline and must complete
// before start returns.
func TestAwaitNilProc(t *testing.T) {
	boom := errors.New("boom")
	var p *Proc
	if err := p.Await(func(task *Task, done func(error)) {
		if task != nil {
			t.Errorf("nil process got task %v", task)
		}
		done(boom)
	}); err != boom {
		t.Fatalf("Await returned %v, want %v", err, boom)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "Await on a nil Proc") {
			t.Fatalf("asynchronous task on a nil process: recovered %q, want the Await panic", msg)
		}
	}()
	p.Await(func(*Task, func(error)) {})
}
