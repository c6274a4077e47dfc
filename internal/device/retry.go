package device

import (
	"errors"
	"fmt"
	"time"

	"turbobp/internal/sim"
)

// retryDelay is the virtual time a failed request waits before its one
// re-issue: firmware retry pacing, not congestion control.
const retryDelay = 100 * time.Microsecond

// Retry is a Device that re-issues a request failed by a transient error
// once, retryDelay of virtual time later; the second attempt's outcome is
// the request's. ErrLost is returned at once: the whole device is gone, and
// recovery, not persistence, is the fix. The engine installs one over its
// database device and the SSD manager one over its SSD device, so the
// database and SSD transfers of every backend degrade the same way.
//
// A request costs its attempts' device events plus, when the first one
// fails, the one retryDelay sleep. Request states are pooled, so steady-state
// traffic allocates nothing, retried or not. Like the devices it wraps, a
// Retry is used under the simulation kernel's serialization.
type Retry struct {
	inner Device

	// ReadErrors and WriteErrors count failed attempts, the re-issued
	// first attempts included.
	ReadErrors, WriteErrors int64

	free []*retryReq
}

var _ Device = (*Retry)(nil)
var _ Formatter = (*Retry)(nil)

// NewRetry wraps inner.
func NewRetry(inner Device) *Retry { return &Retry{inner: inner} }

// retryReq carries one request through its attempts.
type retryReq struct {
	r       *Retry
	t       *sim.Task
	page    PageNum
	bufs    [][]byte
	k       func(error)
	write   bool
	retried bool

	onDone  func(error) // bound to (*retryReq).done once
	onRetry func()      // bound to (*retryReq).issue once
}

func (r *Retry) do(t *sim.Task, page PageNum, bufs [][]byte, write bool, k func(error)) {
	var q *retryReq
	if n := len(r.free); n > 0 {
		q = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
	} else {
		q = &retryReq{r: r}
		q.onDone = q.done
		q.onRetry = q.issue
	}
	q.t, q.page, q.bufs, q.write, q.k, q.retried = t, page, bufs, write, k, false
	q.issue()
}

func (q *retryReq) issue() {
	if q.write {
		q.r.inner.WriteTask(q.t, q.page, q.bufs, q.onDone)
	} else {
		q.r.inner.ReadTask(q.t, q.page, q.bufs, q.onDone)
	}
}

func (q *retryReq) done(err error) {
	r := q.r
	if err != nil {
		if q.write {
			r.WriteErrors++
		} else {
			r.ReadErrors++
		}
		if !q.retried && !errors.Is(err, ErrLost) {
			// The caller's own state (an SSD frame's in-flight count, a pool
			// frame) stays held across the wait.
			q.retried = true
			q.t.Sleep(retryDelay, q.onRetry)
			return
		}
	}
	k := q.k
	q.t, q.bufs, q.k = nil, nil, nil
	r.free = append(r.free, q)
	k(err)
}

// ReadTask reads like the wrapped device, re-issuing a transient failure once.
func (r *Retry) ReadTask(t *sim.Task, page PageNum, bufs [][]byte, k func(error)) {
	r.do(t, page, bufs, false, k)
}

// WriteTask writes like the wrapped device, re-issuing a transient failure once.
func (r *Retry) WriteTask(t *sim.Task, page PageNum, bufs [][]byte, k func(error)) {
	r.do(t, page, bufs, true, k)
}

// Read is ReadTask for a blocking process.
func (r *Retry) Read(p *sim.Proc, page PageNum, bufs [][]byte) error {
	return p.Await(func(t *sim.Task, done func(error)) { r.do(t, page, bufs, false, done) })
}

// Write is WriteTask for a blocking process.
func (r *Retry) Write(p *sim.Proc, page PageNum, bufs [][]byte) error {
	return p.Await(func(t *sim.Task, done func(error)) { r.do(t, page, bufs, true, done) })
}

// Format forwards to the wrapped device's Formatter.
func (r *Retry) Format(fill func(page PageNum, buf []byte)) error {
	f, ok := r.inner.(Formatter)
	if !ok {
		return fmt.Errorf("device: %T does not support formatting", r.inner)
	}
	return f.Format(fill)
}

// Pending reports the wrapped device's in-flight requests; a request
// waiting out retryDelay is in none.
func (r *Retry) Pending() int { return r.inner.Pending() }

// Stats returns the wrapped device's counters.
func (r *Retry) Stats() *Stats { return r.inner.Stats() }
