package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// recovered runs fn and returns the string it panicked with ("" if none).
func recovered(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
		}
	}()
	fn()
	return ""
}

// TestCallWithoutWaitingDispatchesNothing: a body that never waits runs on
// the calling goroutine with no event, no sequence number and no clock
// movement, and a synchronous Await is part of that.
func TestCallWithoutWaitingDispatchesNothing(t *testing.T) {
	env, trace := traceEnv()
	boom := errors.New("boom")
	ran := false
	env.Call("body", func(p *Proc) {
		ran = true
		if p.Name() != "body" || p.Env() != env || p.Done() != nil {
			t.Errorf("process = (%q, %v, done %v), want (body, the env, no Done signal)", p.Name(), p.Env(), p.Done())
		}
		err := p.Await(func(task *Task, done func(error)) {
			if task.Name() != "body" {
				t.Errorf("Await task name %q, want body", task.Name())
			}
			done(boom)
		})
		if err != boom {
			t.Errorf("Await returned %v, want %v", err, boom)
		}
	})
	if !ran || len(*trace) != 0 || env.Dispatched() != 0 || env.Now() != 0 || !env.Idle() {
		t.Fatalf("ran=%v dispatches=%d dispatched=%d now=%v idle=%v; want true 0 0 0 true",
			ran, len(*trace), env.Dispatched(), env.Now(), env.Idle())
	}
	// A sleep is one queued event, even alone on the queue.
	env.Call("sleeper", func(p *Proc) { p.Sleep(time.Second) })
	if len(*trace) != 1 || env.Dispatched() != 1 || env.Now() != time.Second {
		t.Fatalf("sleep: dispatches=%d dispatched=%d now=%v; want 1 1 1s", len(*trace), env.Dispatched(), env.Now())
	}
}

// TestCallMatchesGo runs one body — a sleep that must queue, a contended
// resource, a signal — against the same two background processes, once as a
// Go process under Run and once under Call. The dispatch trace must be the
// same (at, seq) sequence minus the body's spawn event, which Call does not
// have (so every later sequence number is one lower).
func TestCallMatchesGo(t *testing.T) {
	run := func(call bool) ([]dispatchRec, []string) {
		env, trace := traceEnv()
		res := NewResource(env, 1)
		sig := NewSignal(env)
		var order []string
		body := func(p *Proc) {
			p.Sleep(time.Microsecond) // the holder's spawn is pending: slow path
			res.Acquire(p)            // held until 5µs
			order = append(order, "body-acquired@"+p.Now().String())
			p.Sleep(2 * time.Microsecond)
			res.Release()
			sig.Wait(p)
			order = append(order, "body-signalled@"+p.Now().String())
		}
		background := func() {
			env.Go("holder", func(p *Proc) {
				res.Acquire(p)
				p.Sleep(5 * time.Microsecond)
				res.Release()
				order = append(order, "holder-released@"+p.Now().String())
			})
			env.Go("signaller", func(p *Proc) {
				p.Sleep(20 * time.Microsecond)
				sig.Broadcast()
			})
		}
		if call {
			background()
			env.Call("body", body)
		} else {
			env.Go("body", body) // first, as Call's body starts before anything queued
			background()
			env.Run(-1)
		}
		if !env.Idle() || env.Live() != 0 {
			t.Fatalf("call=%v: idle=%v live=%d at the end, want true 0", call, env.Idle(), env.Live())
		}
		return *trace, order
	}
	goTrace, goOrder := run(false)
	callTrace, callOrder := run(true)
	wantOrder := []string{"holder-released@5µs", "body-acquired@5µs", "body-signalled@20µs"}
	if !reflect.DeepEqual(goOrder, wantOrder) || !reflect.DeepEqual(callOrder, wantOrder) {
		t.Fatalf("order: go %v, call %v, want %v", goOrder, callOrder, wantOrder)
	}
	if len(goTrace) == 0 || goTrace[0] != (dispatchRec{0, 1}) {
		t.Fatalf("Go trace %v does not start with the body's spawn event", goTrace)
	}
	want := make([]dispatchRec, 0, len(goTrace)-1)
	for _, r := range goTrace[1:] {
		want = append(want, dispatchRec{r.at, r.seq - 1})
	}
	if !reflect.DeepEqual(callTrace, want) {
		t.Fatalf("dispatch traces differ:\ncall          %v\ngo minus spawn %v", callTrace, want)
	}
}

// TestCallDrainsDueEvents: what the body leaves due at the instant it ends
// runs before Call returns; later events stay queued and the clock stays.
func TestCallDrainsDueEvents(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Call("body", func(p *Proc) {
		env.Spawn("due-task", func(*Task) { order = append(order, "due-task") })
		env.Go("due-proc", func(q *Proc) {
			order = append(order, "due-proc")
			q.Sleep(time.Millisecond) // bounded to this instant: must queue
			order = append(order, "later")
		})
		order = append(order, "body-end")
	})
	want := []string{"body-end", "due-task", "due-proc"}
	if !reflect.DeepEqual(order, want) || env.Now() != 0 || env.Idle() {
		t.Fatalf("order %v now %v idle %v; want %v, 0, one event left", order, env.Now(), env.Idle(), want)
	}
	env.Run(-1)
	if order[len(order)-1] != "later" || env.Now() != time.Millisecond {
		t.Fatalf("after Run: order %v now %v", order, env.Now())
	}
}

// finishes fails the test if fn has not returned within ten seconds (fn is
// left spinning: these are the cases that used to hang).
func finishes(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Call did not return within 10s")
	}
}

// TestCallLonePoller: a periodic poller is the only other thing in the
// environment while the calling process sleeps one second. The process
// wakes at exactly one second and the poller has run once per period.
func TestCallLonePoller(t *testing.T) {
	env := NewEnv()
	polls := 0
	env.Go("poller", func(p *Proc) {
		for {
			p.Sleep(20 * time.Millisecond)
			polls++
		}
	})
	var woke time.Duration
	finishes(t, func() {
		env.Call("sleeper", func(p *Proc) {
			p.Sleep(time.Second)
			woke = p.Now()
		})
	})
	if woke != time.Second || env.Now() != time.Second || polls < 49 || polls > 50 {
		t.Fatalf("woke at %v, now %v, %d polls; want 1s, 1s, 49 or 50", woke, env.Now(), polls)
	}
	env.Shutdown()
}

// TestCallAwaitCompletedOnAnotherGoroutine: the completion of the calling
// process's Await is raised by a poller, on the poller's goroutine, and the
// poller then goes on polling with nothing else queued. The completion only
// marks the process woken; the process must resume at that instant, before
// the poller's next wakeup moves the clock.
func TestCallAwaitCompletedOnAnotherGoroutine(t *testing.T) {
	env := NewEnv()
	boom := errors.New("boom")
	var wake func(error)
	polls := 0
	env.Go("poller", func(p *Proc) {
		for {
			p.Sleep(20 * time.Millisecond)
			if polls++; polls == 3 {
				wake(boom)
			}
		}
	})
	var got error
	var woke time.Duration
	finishes(t, func() {
		env.Call("waiter", func(p *Proc) {
			got = p.Await(func(_ *Task, done func(error)) { wake = done })
			woke = p.Now()
		})
	})
	if got != boom || woke != 60*time.Millisecond || polls != 3 || env.Now() != woke {
		t.Fatalf("Await = %v at %v after %d polls, now %v; want boom at 60ms after 3", got, woke, polls, env.Now())
	}
	env.Shutdown()
}

// TestCallWakesParkedProcess is the other direction: the calling process
// raises the completion a parked goroutine-backed process awaits. That
// process runs at once, and control comes back when it parks again.
func TestCallWakesParkedProcess(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var wake func(error)
	var order []string
	env.Go("parked", func(p *Proc) {
		p.Await(func(_ *Task, done func(error)) { wake = done })
		order = append(order, "parked-resumed")
		sig.Wait(p)
		order = append(order, "parked-signalled")
	})
	env.Call("waker", func(p *Proc) {
		p.Yield() // let the other process start and park
		order = append(order, "waker-wakes")
		wake(nil)
		order = append(order, "waker-continues")
		sig.Broadcast() // its wakeup is due now: runs before Call returns
		order = append(order, "waker-done")
	})
	want := []string{"waker-wakes", "parked-resumed", "waker-continues", "waker-done", "parked-signalled"}
	if !reflect.DeepEqual(order, want) || env.Now() != 0 || env.Live() != 0 {
		t.Fatalf("order %v now %v live %d, want %v at 0 with nothing live", order, env.Now(), env.Live(), want)
	}
}

// TestCallNestingPanics: Call inside Call and Call inside Run are bugs, and
// the environment is usable again after the panic unwound.
func TestCallNestingPanics(t *testing.T) {
	env := NewEnv()
	msg := recovered(func() {
		env.Call("outer", func(*Proc) { env.Call("inner", func(*Proc) {}) })
	})
	if !strings.Contains(msg, "Call inside Run or another Call") {
		t.Fatalf("nested Call: recovered %q", msg)
	}
	env.Spawn("task", func(*Task) { env.Call("in-run", func(*Proc) {}) })
	msg = recovered(func() { env.Run(-1) })
	if !strings.Contains(msg, "Call inside Run or another Call") {
		t.Fatalf("Call inside Run: recovered %q", msg)
	}
	msg = recovered(func() {
		env.Call("runner", func(*Proc) { env.Run(-1) })
	})
	if !strings.Contains(msg, "nested Run") {
		t.Fatalf("Run inside Call: recovered %q", msg)
	}
	ran := false
	env.Call("after", func(p *Proc) { p.Sleep(time.Second); ran = true })
	if !ran || env.Now() != time.Second {
		t.Fatalf("Call after the panics: ran=%v now=%v", ran, env.Now())
	}
}

// TestCallDeadlockPanicsByName: the calling process is the scheduler, so
// waiting with nothing queued can never end — panic and say who, do not
// block the caller's goroutine.
func TestCallDeadlockPanicsByName(t *testing.T) {
	env := NewEnv()
	msg := recovered(func() {
		env.Call("stuck-reader", func(p *Proc) {
			p.Await(func(*Task, func(error)) {}) // never completed
		})
	})
	if !strings.Contains(msg, `"stuck-reader"`) || !strings.Contains(msg, "deadlock") {
		t.Fatalf("recovered %q, want the deadlock panic naming the process", msg)
	}
}
