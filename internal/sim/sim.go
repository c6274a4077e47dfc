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
// task form; a blocking process runs it through Proc.Await, which adds no
// event and no sequence number, so a simulation dispatches the same events
// whichever kind of caller drives it.
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
	until   time.Duration // how far a Sleep may advance the clock inline (< 0: no limit); only meaningful while running
	events  calQueue      // see queue.go
	caller  Proc          // the process Call runs on its caller's goroutine (reused)
	awaits  []*awaiter    // free list of Await call states (see task.go)
	live    map[*Proc]struct{}
	stopped bool
	running bool

	dispatched  uint64                             // logical events processed (queue pops + inline sleeps)
	inlineDepth int                                // current nesting of inline Task.Sleep continuations
	inlineLimit int                                // nesting cap before falling back to the queue
	onDispatch  func(at time.Duration, seq uint64) // test hook, nil in production
}

// defaultInlineLimit bounds how deeply Task.Sleep continuations nest on the
// native stack before a wakeup is routed through the event queue instead.
// Routing preserves dispatch order exactly (the wakeup is strictly earlier
// than every pending event), so the cap only trades a queue round-trip for
// bounded stack growth.
const defaultInlineLimit = 256

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	e := &Env{
		live:        make(map[*Proc]struct{}),
		inlineLimit: defaultInlineLimit,
	}
	e.caller.env = e
	return e
}

// Dispatched returns the number of logical events processed so far: queue
// dispatches plus sleeps completed inline by the fast paths. It is the
// natural "simulator events" figure for throughput reporting.
func (e *Env) Dispatched() uint64 { return e.dispatched }

// SetDispatchHook installs fn to observe every queue dispatch as (at, seq).
// Test instrumentation: the equivalence property tests record dispatch
// traces with it. Pass nil to remove.
func (e *Env) SetDispatchHook(fn func(at time.Duration, seq uint64)) { e.onDispatch = fn }

// SetInlineLimit overrides the inline-continuation nesting cap. Test
// instrumentation: raising it past any workload's event count makes
// Task.Sleep consume sequence numbers exactly as Proc.Sleep does, so
// dispatch traces of blocking and task-form drivers compare equal. n <= 0
// restores the default.
func (e *Env) SetInlineLimit(n int) {
	if n <= 0 {
		n = defaultInlineLimit
	}
	e.inlineLimit = n
}

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

	// woken is how Env.caller is resumed: the dispatch of its wakeup event,
	// or an Await completion, sets it and the wait loop in park returns.
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

// schedule enqueues a wakeup for p at time at.
func (e *Env) schedule(at time.Duration, p *Proc) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, proc: p}, e.now)
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
	e.schedule(e.now, p)
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
	defer func() { e.running, e.inlineDepth = false, 0 }()
	e.until = -1 // no limit while the calling process itself runs
	p := &e.caller
	p.name, p.woken = name, false
	fn(p)
	// A body that never waited, or whose last wakeup spawned work, leaves
	// events due now (a woken cleaner, an eviction's write-behind): run them,
	// as Run(now) would.
	for e.step(e.now) {
	}
}

// dispatch pops ev, the head of the queue, and runs it: a continuation is
// called, a Go process is switched to until it next parks or exits, and the
// calling process (Env.caller) is only marked woken — it is the one
// dispatching.
func (e *Env) dispatch(ev event) {
	e.events.pop()
	e.now = ev.at
	e.dispatched++
	if e.onDispatch != nil {
		e.onDispatch(ev.at, ev.seq)
	}
	switch {
	case ev.fn != nil:
		// Run-to-completion continuation: a direct call on this
		// goroutine, no switch.
		ev.fn()
	case ev.proc.isCaller():
		ev.proc.woken = true
	default:
		ev.proc.next()
	}
}

// step dispatches the next event if it is due by limit and reports whether
// it did. It is the calling process's scheduler step (its wait loop, and the
// drain that ends Call), so until is bounded to the event's own time:
// nothing the event runs may sleep inline past that instant. With no limit
// and nothing else queued, a lone periodic poller would find its next wakeup
// "provably next" every time and spin the clock forever while the calling
// process waits.
func (e *Env) step(limit time.Duration) bool {
	ev, ok := e.events.peek()
	if !ok || ev.at > limit {
		return false
	}
	e.until = ev.at
	e.dispatch(ev)
	return true
}

// wait is park for the calling process: dispatch events until one wakes it,
// then lift the limit again for as long as the process itself runs.
func (e *Env) wait(p *Proc) {
	for !p.woken {
		if !e.step(math.MaxInt64) {
			panic(fmt.Sprintf("sim: process %q waits with no event pending (deadlock)", p.name))
		}
	}
	p.woken = false
	e.until = -1
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
	if d < 0 {
		d = 0
	}
	e := p.env
	at := e.now + d
	// Fast path: if this wakeup would be the very next dispatch — it strictly
	// precedes every pending event (a tie loses, FIFO) and the Run limit does
	// not cut it off — no other process can run in between, so advance the
	// clock and keep going, skipping the park and its two goroutine switches.
	// Dispatch order is identical either way.
	if e.running && (e.until < 0 || at <= e.until) {
		if ev, ok := e.events.peek(); !ok || at < ev.at {
			e.now = at
			e.dispatched++
			return
		}
	}
	e.schedule(at, p)
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
	e.until = until
	// Deferred, as in Call: a process's panic comes out of Run, and the
	// environment must be runnable (or Shutdown) after it.
	defer func() { e.running, e.inlineDepth = false, 0 }()
	for e.events.size > 0 {
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
func (e *Env) Idle() bool { return e.events.size == 0 }

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
	e.events.reset()
	for p := range e.live {
		p.next()
	}
	if len(e.live) != 0 {
		panic("sim: processes survived shutdown")
	}
}

// waiter is one entry of a Signal or Resource wait queue: a blocked process
// or a task continuation. Exactly one field is set; both kinds are woken by
// scheduling an event at the current instant, so they interleave FIFO.
type waiter struct {
	p  *Proc
	fn func()
}

// wake schedules the wakeup of w at the current virtual time.
func (e *Env) wake(w waiter) {
	if w.fn != nil {
		e.scheduleFn(e.now, w.fn)
		return
	}
	e.schedule(e.now, w.p)
}

// A Signal is a broadcast condition: processes wait on it and a later
// Broadcast wakes all current waiters at the current virtual time.
type Signal struct {
	env     *Env
	waiters []waiter
	fired   bool
}

// NewSignal returns a Signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Fired reports whether Broadcast has ever been called.
func (s *Signal) Fired() bool { return s.fired }

// Wait blocks p until the next Broadcast. If the signal has already fired,
// Wait still blocks until the *next* Broadcast, except via WaitFired.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, waiter{p: p})
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
	for i, w := range s.waiters {
		s.env.wake(w)
		s.waiters[i] = waiter{} // drop the references from the backing array
	}
	s.waiters = s.waiters[:0] // keep the storage for the next wait cycle
}

// A Resource is a counted FIFO semaphore: at most Cap processes hold it at
// once and waiters acquire it in arrival order. The wait queue is a slice
// plus a head index: popped slots are zeroed (no retained *Proc references)
// and the storage is reused once the queue drains.
type Resource struct {
	env     *Env
	cap     int
	inUse   int
	waiters []waiter
	head    int // index of the oldest waiter in waiters
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
func (r *Resource) enqueue(w waiter) {
	if r.head > 0 && len(r.waiters) == cap(r.waiters) {
		n := copy(r.waiters, r.waiters[r.head:])
		tail := r.waiters[n:]
		for i := range tail {
			tail[i] = waiter{}
		}
		r.waiters = r.waiters[:n]
		r.head = 0
	}
	r.waiters = append(r.waiters, w)
}

// Acquire blocks p until a unit of the resource is available and takes it.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap && r.Queued() == 0 {
		r.inUse++
		return
	}
	r.enqueue(waiter{p: p})
	p.park()
	// Ownership was transferred by Release; inUse already accounts for us.
}

// TryAcquire takes a unit if one is free without blocking and reports
// whether it succeeded.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.cap && r.Queued() == 0 {
		r.inUse++
		return true
	}
	return false
}

// Release returns a unit of the resource, waking the oldest waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource")
	}
	if r.head < len(r.waiters) {
		w := r.waiters[r.head]
		r.waiters[r.head] = waiter{} // drop the references from the backing array
		r.head++
		if r.head == len(r.waiters) {
			r.waiters = r.waiters[:0] // drained: rewind and reuse the storage
			r.head = 0
		}
		// The unit passes directly to w: inUse stays unchanged.
		r.env.wake(w)
		return
	}
	r.inUse--
}

// InUse returns the number of held units.
func (r *Resource) InUse() int { return r.inUse }

// Queued returns the number of processes waiting to acquire.
func (r *Resource) Queued() int { return len(r.waiters) - r.head }

// Pending returns held units plus waiters; for a device modelled as a
// resource this is the "number of pending I/Os" used by throttle control.
func (r *Resource) Pending() int { return r.inUse + r.Queued() }
