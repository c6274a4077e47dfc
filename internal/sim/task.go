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
// blocking ones do (Spawn like Go, the Sleep slow path like Sleep's
// schedule+park, resource and signal waits like their blocking
// counterparts), and the inline fast paths of both fire under the identical
// "provably next" condition — so the dispatch order of a simulation does
// not depend on which form its callers use. The one asymmetry is the inline
// nesting cap: past inlineLimit, Task.Sleep routes a wakeup through the
// queue that Proc.Sleep would have taken inline. The wakeup is strictly
// earlier than every pending event, so it still dispatches next and order
// is preserved; only the sequence numbering shifts (uniformly, which FIFO
// tie-breaking cannot observe).
//
// Discipline for code written in task form: calling a continuation-taking
// primitive must be the last thing a function does (tail call). The
// primitive either completes inline — running the continuation before
// returning — or schedules it and returns immediately; either way, code
// after the call would run at an undefined virtual time.

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

// scheduleFn enqueues a continuation at time at.
func (e *Env) scheduleFn(at time.Duration, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, fn: fn})
}

// Spawn starts a new run-to-completion task executing fn. Like Go it may be
// called before Run or from inside a running process of either form, and
// the task starts at the current virtual time after already-queued events
// for the same instant.
func (e *Env) Spawn(name string, fn func(t *Task)) *Task {
	if e.stopped {
		panic("sim: Spawn after environment stopped")
	}
	t := &Task{env: e, name: name}
	e.scheduleFn(e.now, func() { fn(t) })
	return t
}

// Sleep advances the task d of virtual time, then runs k. Negative
// durations sleep for zero time (yielding to other events scheduled at the
// same instant). When the wakeup is provably the next dispatch it happens
// inline — same condition as Proc.Sleep's fast path — up to the
// environment's inline nesting cap.
func (t *Task) Sleep(d time.Duration, k func()) {
	if d < 0 {
		d = 0
	}
	e := t.env
	at := e.now + d
	if e.running && (e.until < 0 || at <= e.until) {
		if ev, ok := e.events.peek(); !ok || at < ev.at {
			if e.inlineDepth < e.inlineLimit {
				e.now = at
				e.dispatched++
				e.inlineDepth++
				k()
				e.inlineDepth--
				return
			}
			// Nesting cap reached: unwind the stack through the queue. The
			// event is strictly earlier than everything pending, so it is
			// dispatched next regardless of its sequence number.
		}
	}
	e.scheduleFn(at, k)
}

// Yield runs k after all other events at the current instant.
func (t *Task) Yield(k func()) { t.Sleep(0, k) }

// AcquireFunc takes a unit of the resource and then runs k: inline when a
// unit is free (as a blocking Acquire would return immediately), otherwise
// k joins the FIFO wait queue alongside any blocked processes.
func (r *Resource) AcquireFunc(k func()) {
	if r.inUse < r.cap && r.Queued() == 0 {
		r.inUse++
		k()
		return
	}
	r.enqueue(waiter{fn: k})
}

// WaitFunc runs k at the signal's next Broadcast.
func (s *Signal) WaitFunc(k func()) {
	s.waiters = append(s.waiters, waiter{fn: k})
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
// once. Awaiters are pooled on the Env, so a call allocates nothing —
// whether its process lives for one operation or for the whole run.
type awaiter struct {
	p      *Proc
	task   Task
	state  awaitState
	err    error
	doneFn func(error) // bound to (*awaiter).done once
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
// runs before start returns (a pool hit, an idle device whose service time
// elapses inline) the process never parks. Otherwise it parks, and done —
// called later from some continuation — switches straight to the process,
// exactly as the scheduler does when it dispatches a process wakeup, and
// returns when the process next parks or exits. Either way Await itself
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
	var a *awaiter
	if n := len(e.awaits); n > 0 {
		a = e.awaits[n-1]
		e.awaits = e.awaits[:n-1]
	} else {
		a = &awaiter{}
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
	e.awaits = append(e.awaits, a)
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
	if a.p.isCaller() {
		// The calling process is the scheduler, waiting in its dispatch loop
		// below this continuation (or below the process this continuation
		// runs on): it resumes when control unwinds to that loop.
		a.p.woken = true
		return
	}
	// Resume p the way dispatch resumes a process. When this completion runs
	// on another process's goroutine (a task chain continued on a recovery
	// process), the switch simply nests: p runs until it next parks or exits
	// and control comes back here, on the waker's goroutine.
	a.p.next()
}
