package sim

import "time"

// This file holds the run-to-completion form, and the one bridge that lets
// a blocking process run code written in it.
//
// A Task never blocks — where a Proc would park its goroutine, task-form
// code passes an explicit continuation that the scheduler later calls
// directly on its own goroutine. That removes the two goroutine switches a
// Proc pays per wakeup (a few hundred nanoseconds against a function call),
// which add up in an I/O-bound workload. It is the form every engine,
// SSD-manager, WAL and device operation is written in, once.
//
// Task primitives consume scheduler sequence numbers exactly as the
// blocking ones do: Spawn like Go, Sleep like Proc.Sleep, resource and
// signal waits like their blocking counterparts. A blocking process queues
// its wake where a task queues its k, so the dispatch order of a simulation
// does not depend on which form its callers use.
//
// Discipline for code written in task form: calling a continuation-taking
// primitive must be the last thing a function does (tail call). Sleep
// always schedules its continuation and returns; AcquireFunc on a free unit
// and WaitFiredFunc on a fired signal run it before returning. Either way,
// code after the call would run at an undefined virtual time.

// Task is a run-to-completion simulated process. Like a Proc it may only be
// used from within the simulation (its continuations run serially on the
// scheduler goroutine); unlike a Proc it has no goroutine of its own.
type Task struct {
	env  *Env
	name string
}

// Env returns the environment the task belongs to.
func (t *Task) Env() *Env { return t.env }

// Name returns the name given to Spawn.
func (t *Task) Name() string { return t.name }

// Now returns the current virtual time.
func (t *Task) Now() time.Duration { return t.env.now }

// Spawn starts a new run-to-completion task executing fn. Like Go it may be
// called before Run or from inside a running process of either form, and
// the task starts at the current virtual time after already-queued events
// for the same instant.
func (e *Env) Spawn(name string, fn func(t *Task)) *Task {
	if e.stopped {
		panic("sim: Spawn after environment stopped")
	}
	t := &Task{env: e, name: name}
	e.schedule(e.now, func() { fn(t) })
	return t
}

// Sleep advances the task d of virtual time, then runs k: it queues k as
// one event, as Proc.Sleep queues the process's wake. Negative durations
// sleep for zero time (yielding to other events scheduled at the same
// instant).
func (t *Task) Sleep(d time.Duration, k func()) {
	t.env.schedule(t.env.now+d, k) // schedule clamps a negative d to now
}

// Yield runs k after all other events at the current instant.
func (t *Task) Yield(k func()) { t.Sleep(0, k) }

// AcquireFunc takes a unit of the resource and then runs k: inline when a
// unit is free (as a blocking Acquire would return immediately), otherwise
// k joins the FIFO wait queue alongside any blocked processes.
func (r *Resource) AcquireFunc(k func()) {
	if r.inUse < r.cap && r.Queued() == 0 {
		r.charge()
		r.inUse++
		k()
		return
	}
	r.enqueue(k)
}

// WaitFunc runs k at the signal's next Broadcast.
func (s *Signal) WaitFunc(k func()) {
	s.waiters = append(s.waiters, k)
}

// WaitFiredFunc runs k once the signal has fired at least once: inline if
// it already has, otherwise at the next Broadcast.
func (s *Signal) WaitFiredFunc(k func()) {
	if s.fired {
		k()
		return
	}
	s.WaitFunc(k)
}

// awaiter is the state of one Await call: the Task view handed to the
// task-form code, the call's progress and result, and its completion, bound
// on first use. Awaiters are pooled on the Env, so a call allocates nothing
// — whether its process lives for one operation or for the whole run.
type awaiter struct {
	p      *Proc
	task   Task
	state  awaitState
	err    error
	doneFn func(error) // bound to (*awaiter).done on first Get
}

type awaitState uint8

const (
	awaitCompleted awaitState = iota // the completion has run
	awaitStarting                    // start is running on the process's goroutine
	awaitParked                      // start returned without completing; the process is parked
)

// Await is the bridge from the blocking form to the task form: it runs
// start — task-form code — on the calling process's goroutine and returns
// the error start's completion was called with, once it has been. When done
// runs before start returns (code that never waits: a pool hit with no CPU
// charge, a file device's synchronous syscall) the process never parks.
// Otherwise it parks, and done — called later from some continuation —
// resumes it through its wake, exactly as the scheduler does when it
// dispatches a process wakeup: a Go process is switched to, and done returns
// when it next parks or exits. Either way Await itself
// schedules nothing: no event, no sequence number, so the
// dispatch trace is the one start's own waits produce. done must be called
// exactly once; start is only called, never retained.
//
// A nil process has no goroutine to park and no environment: start gets a
// nil Task and must complete before returning (file devices, whose I/O is
// a blocking syscall, do); Await panics if it does not.
func (p *Proc) Await(start func(t *Task, done func(error))) error {
	if p == nil {
		completed := false
		var result error
		start(nil, func(err error) { completed, result = true, err })
		if !completed {
			panic("sim: Await on a nil Proc: the task did not complete synchronously")
		}
		return result
	}
	e := p.env
	a := e.awaits.Get()
	if a.doneFn == nil {
		a.doneFn = a.done
	}
	a.p, a.task, a.state = p, Task{env: e, name: p.name}, awaitStarting
	start(&a.task, a.doneFn)
	if a.state == awaitStarting {
		a.state = awaitParked
		p.park()
	}
	err := a.err
	a.p, a.err = nil, nil
	e.awaits.Put(a)
	return err
}

// done is the completion handed to start.
func (a *awaiter) done(err error) {
	parked := a.state == awaitParked
	if !parked && a.state != awaitStarting {
		panic("sim: Await completion called twice")
	}
	a.state, a.err = awaitCompleted, err
	if !parked {
		return // inside start: Await returns without parking
	}
	// Resume p as dispatch would, through its wake. The calling process
	// (Env.caller) is only marked woken: it resumes when control unwinds to
	// its dispatch loop below this continuation. A Go process is switched
	// to; when this completion runs on another process's goroutine (a task
	// chain continued on a recovery process), the switch simply nests: p
	// runs until it next parks or exits and control comes back here, on the
	// waker's goroutine.
	a.p.wake()
}

// Waits is the bridge for task-form code that completes with a value as
// well as an error (a frame, an SSD hit): Await runs it for a blocking
// process and returns both. Its states are pooled, so a call allocates
// nothing; the zero value is ready to use. One Waits per value type per
// owner, used under the simulation's serialization.
type Waits[V any] struct{ free FreeList[valueWait[V]] }

// valueWait is the state of one Waits.Await call: the value the task-form
// completion delivered, and the process's Await completion it then calls.
type valueWait[V any] struct {
	v    V
	done func(error)
	k    func(V, error) // bound to (*valueWait).complete on first Get
}

func (w *valueWait[V]) complete(v V, err error) {
	w.v = v
	w.done(err)
}

// Await runs start — task-form code continuing with k(v, err) — for the
// blocking process p through Proc.Await, and returns what k was called
// with. It adds no event of its own, as Proc.Await does not.
func (ws *Waits[V]) Await(p *Proc, start func(t *Task, k func(V, error))) (V, error) {
	w := ws.free.Get()
	if w.k == nil {
		w.k = w.complete
	}
	err := p.Await(func(t *Task, done func(error)) {
		w.done = done
		start(t, w.k)
	})
	v := w.v
	var zero V
	w.v, w.done = zero, nil
	ws.free.Put(w)
	return v, err
}
