package device

import (
	"errors"
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

	reqs sim.FreeList[retryReq]
}

var _ Device = (*Retry)(nil)

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

	onDone  func(error) // bound to (*retryReq).done on first Get
	onRetry func()      // bound to (*retryReq).issue on first Get
}

func (r *Retry) do(t *sim.Task, page PageNum, bufs [][]byte, write bool, k func(error)) {
	q := r.reqs.Get()
	if q.r == nil {
		q.r, q.onDone, q.onRetry = r, q.done, q.issue
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
	r.reqs.Put(q)
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

// Format formats the wrapped device.
func (r *Retry) Format(fill func(page PageNum, buf []byte)) error { return r.inner.Format(fill) }

// Pending reports the wrapped device's in-flight requests; a request
// waiting out retryDelay is in none.
func (r *Retry) Pending() int { return r.inner.Pending() }

// Stats returns the wrapped device's counters.
func (r *Retry) Stats() *Stats { return r.inner.Stats() }
