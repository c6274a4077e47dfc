// Package sim implements a small discrete-event simulation (DES) kernel.
//
// A simulation is driven by an Env, which owns a virtual clock and an event
// queue. Simulated activities run as cooperative processes (Proc). A process
// started with Env.Go is a coroutine (coro.go): it has a goroutine of its
// own, but whoever resumes it — the scheduler inside Env.Run or Env.Call,
// or an Await completion — switches to it directly and is switched back to
// when the process next parks or exits, with no run queue, channel or thread
// wake-up in between. At any instant exactly one goroutine runs, so
// simulations are fully deterministic for a fixed sequence of process
// actions. A panic in a process, or a runtime.Goexit (t.Fatal), surfaces on
// the goroutine that resumed it, out of Run or Call.
//
// Env.Call is the other way to run a process: on the goroutine that calls
// it, with no goroutine, coroutine or allocation of its own. That process is
// the scheduler — where a Go process would park, it dispatches the pending
// events itself until one of them wakes it — so one synchronous request can
// be served as a process by the thread that brought it, with the background
// processes of the environment driven from the same loop.
//
// Processes block by calling Proc.Sleep, by waiting on a Signal, or by
// acquiring a Resource. While a process is blocked, virtual time advances to
// the next scheduled event. Virtual time never advances while a process is
// running: computation is free unless a process explicitly sleeps.
//
// Code that must not pay a goroutine switch per wakeup is written in the
// run-to-completion form instead (Task, see task.go): the same blocking
// points as explicit continuations, called directly by the scheduler. Every
// engine, SSD-manager, WAL and device operation has exactly one body, in
// task form; a blocking process runs it through Proc.Await (or Waits.Await,
// for a body that completes with a value), which adds no event and no
// sequence number, so a simulation dispatches the same events whichever
// kind of caller drives it. The per-call state of task-form code is
// recycled through FreeList, so steady-state operations allocate nothing.
//
// Every sleep, of either form, is one event on the queue, and every event is
// one continuation: a task's k, or a process's wake, which resumes it. The
// scheduler's loop calls each one, so a chain of sleeps never nests on the
// stack.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrStopped is the panic value used to unwind processes when the
// environment shuts down. Process bodies should not recover it.
var ErrStopped = errors.New("sim: environment stopped")

// Env is a discrete-event simulation environment. The zero value is not
// usable; create one with NewEnv.
type Env struct {
	now     time.Duration
	seq     uint64
	events  eventHeap         // see queue.go
	caller  Proc              // the process Call runs on its caller's goroutine (reused)
	awaits  FreeList[awaiter] // Await call states (see task.go)
	live    map[*Proc]struct{}
	stopped bool
	running bool

	dispatched uint64                             // events dispatched
	onDispatch func(at time.Duration, seq uint64) // test hook, nil in production
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	e := &Env{live: make(map[*Proc]struct{})}
	e.caller.env = e
	e.caller.wake = func() { e.caller.woken = true }
	return e
}

// Dispatched returns the number of events dispatched so far. It is the
// natural "simulator events" figure for throughput reporting.
func (e *Env) Dispatched() uint64 { return e.dispatched }

// SetDispatchHook installs fn to observe every queue dispatch as (at, seq).
// Test instrumentation: the equivalence property tests record dispatch
// traces with it. Pass nil to remove.
func (e *Env) SetDispatchHook(fn func(at time.Duration, seq uint64)) { e.onDispatch = fn }

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// Proc is a simulated process. A Proc may only be used from within its own
// process function; sharing a Proc across goroutines is a bug.
type Proc struct {
	env  *Env
	name string
	done *Signal

	// The coroutine behind a Go process (see coro.go): next switches to it
	// and returns when it next parks or exits; yield, called by the process,
	// is that park. Both are nil for Env.caller, which has no goroutine.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// wake resumes the process, bound once: it is what a blocking process
	// hands to the queue or to a wait list, as task code hands over its
	// continuation. For a Go process it switches to the coroutine; for
	// Env.caller it sets woken, and the wait loop in park returns.
	wake  func()
	woken bool
}

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// isCaller reports whether p is the process Env.Call runs on its caller's
// goroutine, which is resumed by its woken flag instead of a switch.
func (p *Proc) isCaller() bool { return p == &p.env.caller }

// Done returns a Signal that is broadcast when the process function returns.
// A process run by Env.Call has none (nil): Call returning is its completion.
func (p *Proc) Done() *Signal { return p.done }

// schedule enqueues the continuation fn at time at (clamped to now).
func (e *Env) schedule(at time.Duration, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, fn: fn})
}

// Go starts a new process running fn. It may be called before Run, or from
// inside a running process. The new process is scheduled to start at the
// current virtual time, after already-queued events for the same instant.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	if e.stopped {
		panic("sim: Go after environment stopped")
	}
	p := &Proc{env: e, name: name}
	p.done = NewSignal(e)
	e.live[p] = struct{}{}
	p.start(func() {
		// Deferred so the process is accounted for however fn unwinds: a
		// return, ErrStopped, a panic, or runtime.Goexit (t.Fatal inside a
		// process). The last two then surface in whoever resumed it.
		defer func() {
			delete(e.live, p)
			if !e.stopped {
				p.done.Broadcast()
			}
		}()
		if e.stopped {
			return // never dispatched: Shutdown is resuming it only to end it
		}
		defer func() {
			if r := recover(); r != nil && r != ErrStopped { //nolint:errorlint
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
			}
		}()
		fn(p)
	})
	p.wake = func() { p.next() }
	e.schedule(e.now, p.wake)
	return p
}

// Call runs fn as a process on the calling goroutine and returns when fn
// has returned and every event due at that instant has been dispatched. The
// process is the scheduler: it starts at once (no spawn event), and where a
// Go process would park and hand control back, it dispatches the pending
// events itself until one wakes it. The clock moves only as far as fn's own
// waits take it, and everything else in the queue stays for the next Call or
// Run. Call may not be nested in Run or in another Call.
func (e *Env) Call(name string, fn func(p *Proc)) {
	if e.stopped {
		panic("sim: Call after environment stopped")
	}
	if e.running {
		panic("sim: Call inside Run or another Call")
	}
	e.running = true
	// Deferred so that a panic in fn (a caller's own closure, run on the
	// caller's goroutine) leaves an environment that can be called again.
	defer func() { e.running = false }()
	p := &e.caller
	p.name, p.woken = name, false
	fn(p)
	// A body that never waited, or whose last wakeup spawned work, leaves
	// events due now (a woken cleaner, an eviction's write-behind): run them,
	// as Run(now) would.
	for e.step(e.now) {
	}
}

// dispatch pops ev, the head of the queue, advances the clock to it and
// calls its continuation on this goroutine: a task's k, or a process's wake
// (a switch to a Go process until it next parks or exits; for the calling
// process, which is the one dispatching, only its woken flag).
func (e *Env) dispatch(ev event) {
	e.events.pop()
	e.now = ev.at
	e.dispatched++
	if e.onDispatch != nil {
		e.onDispatch(ev.at, ev.seq)
	}
	ev.fn()
}

// step dispatches the next event if it is due by limit and reports whether
// it did. It is the calling process's scheduler step: its wait loop, and
// the drain that ends Call.
func (e *Env) step(limit time.Duration) bool {
	ev, ok := e.events.peek()
	if !ok || ev.at > limit {
		return false
	}
	e.dispatch(ev)
	return true
}

// wait is park for the calling process: dispatch events until one wakes it.
func (e *Env) wait(p *Proc) {
	for !p.woken {
		if !e.step(math.MaxInt64) {
			panic(fmt.Sprintf("sim: process %q waits with no event pending (deadlock)", p.name))
		}
	}
	p.woken = false
}

// park blocks the calling process until it is resumed, switching back to
// whoever resumed it last: the scheduler, or the process on whose goroutine
// its Await completion ran. The caller must have already arranged for a
// wakeup (a scheduled event, or membership in some wait list that another
// process will signal).
func (p *Proc) park() {
	if p.isCaller() {
		p.env.wait(p)
		return
	}
	p.yield(struct{}{})
	if p.env.stopped {
		panic(ErrStopped)
	}
}

// Sleep blocks the process for d of virtual time. Negative durations sleep
// for zero time (yielding to other events scheduled at the same instant).
func (p *Proc) Sleep(d time.Duration) {
	p.env.schedule(p.env.now+d, p.wake) // schedule clamps a negative d to now
	p.park()
}

// Yield gives up the processor until all other events at the current instant
// have run.
func (p *Proc) Yield() { p.Sleep(0) }

// Run dispatches events until the event queue is empty or until the virtual
// clock would pass until (use a negative until to run to exhaustion). It
// returns the virtual time at which it stopped. Run may be called again to
// continue a paused simulation.
func (e *Env) Run(until time.Duration) time.Duration {
	if e.running {
		panic("sim: nested Run")
	}
	e.running = true
	// Deferred, as in Call: a process's panic comes out of Run, and the
	// environment must be runnable (or Shutdown) after it.
	defer func() { e.running = false }()
	for len(e.events) > 0 {
		ev, _ := e.events.peek()
		if until >= 0 && ev.at > until {
			e.now = until
			return e.now
		}
		e.dispatch(ev)
	}
	if until > e.now {
		e.now = until
	}
	return e.now
}

// Idle reports whether no events are pending.
func (e *Env) Idle() bool { return len(e.events) == 0 }

// Live returns the number of processes that have been started and have not
// yet returned.
func (e *Env) Live() int { return len(e.live) }

// Shutdown terminates every live process by resuming it once more: a parked
// process unwinds with ErrStopped, one that never started returns without
// running its function, and either way its goroutine has exited when the
// resume returns. After Shutdown the environment cannot be reused. It is
// safe to call Shutdown on an environment with no live processes.
func (e *Env) Shutdown() {
	if e.stopped {
		return
	}
	e.stopped = true
	e.events = nil
	for p := range e.live {
		p.next()
	}
	if len(e.live) != 0 {
		panic("sim: processes survived shutdown")
	}
}

// A Signal is a broadcast condition: processes wait on it and a later
// Broadcast wakes all current waiters at the current virtual time. A waiter
// is a continuation — a task's k or a blocked process's wake — so both
// forms interleave FIFO.
type Signal struct {
	env     *Env
	waiters []func()
	fired   bool
}

// NewSignal returns a Signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Fired reports whether Broadcast has ever been called.
func (s *Signal) Fired() bool { return s.fired }

// Wait blocks p until the next Broadcast. If the signal has already fired,
// Wait still blocks until the *next* Broadcast, except via WaitFired.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p.wake)
	p.park()
}

// WaitFired blocks p until the signal has fired at least once; it returns
// immediately if it already has.
func (s *Signal) WaitFired(p *Proc) {
	if s.fired {
		return
	}
	s.Wait(p)
}

// Reset clears the fired flag so the Signal can be reused for another wait
// cycle. It must only be called when no waiters are queued (e.g. by an
// owner recycling a join signal after all parties have continued).
func (s *Signal) Reset() {
	if len(s.waiters) != 0 {
		panic("sim: Signal.Reset with queued waiters")
	}
	s.fired = false
}

// Broadcast wakes all current waiters. The wakeups are scheduled at the
// current virtual time in FIFO order. Broadcast may be called from a process
// or from outside Run.
func (s *Signal) Broadcast() {
	s.fired = true
	for i, k := range s.waiters {
		s.env.schedule(s.env.now, k)
		s.waiters[i] = nil // drop the references from the backing array
	}
	s.waiters = s.waiters[:0] // keep the storage for the next wait cycle
}

// A Resource is a counted FIFO semaphore: at most Cap processes hold it at
// once and waiters acquire it in arrival order. A waiter is a continuation,
// as in Signal. The wait queue is a slice plus a head index: popped slots
// are zeroed (no retained references) and the storage is reused once the
// queue drains. It integrates its held units over virtual time (Busy).
type Resource struct {
	env     *Env
	cap     int
	inUse   int
	waiters []func()
	head    int           // index of the oldest waiter in waiters
	busy    time.Duration // units held × time, up to at
	at      time.Duration // virtual time of the last change of inUse
}

// NewResource returns a resource with the given capacity (cap >= 1).
func NewResource(env *Env, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{env: env, cap: capacity}
}

// enqueue appends a waiter, first compacting popped head slots when they
// dominate the backing array. Without compaction a queue that never fully
// drains (a saturated device) grows its storage without bound.
func (r *Resource) enqueue(k func()) {
	if r.head > 0 && len(r.waiters) == cap(r.waiters) {
		n := copy(r.waiters, r.waiters[r.head:])
		clear(r.waiters[n:])
		r.waiters = r.waiters[:n]
		r.head = 0
	}
	r.waiters = append(r.waiters, k)
}

// Acquire blocks p until a unit of the resource is available and takes it.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap && r.Queued() == 0 {
		r.charge()
		r.inUse++
		return
	}
	r.enqueue(p.wake)
	p.park()
	// Ownership was transferred by Release; inUse already accounts for us.
}

// Release returns a unit of the resource, waking the oldest waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource")
	}
	if r.head < len(r.waiters) {
		k := r.waiters[r.head]
		r.waiters[r.head] = nil // drop the references from the backing array
		r.head++
		if r.head == len(r.waiters) {
			r.waiters = r.waiters[:0] // drained: rewind and reuse the storage
			r.head = 0
		}
		// The unit passes directly to k: inUse stays unchanged.
		r.env.schedule(r.env.now, k)
		return
	}
	r.charge()
	r.inUse--
}

// charge books the units held since the last change of inUse; it runs
// just before every change.
func (r *Resource) charge() {
	r.busy += time.Duration(r.inUse) * (r.env.now - r.at)
	r.at = r.env.now
}

// Busy returns the resource's busy time: held units integrated over
// virtual time, so a capacity-c resource held throughout an interval of
// length d adds c × d. Utilisation is Busy over elapsed time × capacity.
func (r *Resource) Busy() time.Duration {
	return r.busy + time.Duration(r.inUse)*(r.env.now-r.at)
}

// Queued returns the number of processes waiting to acquire.
func (r *Resource) Queued() int { return len(r.waiters) - r.head }

// Pending returns held units plus waiters; for a device modelled as a
// resource this is the "number of pending I/Os" used by throttle control.
func (r *Resource) Pending() int { return r.inUse + r.Queued() }
