package device

import (
	"errors"
	"slices"
	"testing"
	"time"

	"turbobp/internal/sim"
)

var errTransient = errors.New("stub: transient")

// stubDev completes every request at once: its next failN requests fail
// with failErr, every other one succeeds. at records each request's
// virtual time while it has room.
type stubDev struct {
	failN   int
	failErr error
	at      []time.Duration
	stats   Stats
}

func (d *stubDev) do(t *sim.Task, k func(error)) {
	if len(d.at) < cap(d.at) {
		d.at = append(d.at, t.Now())
	}
	if d.failN > 0 {
		d.failN--
		k(d.failErr)
		return
	}
	k(nil)
}

func (d *stubDev) ReadTask(t *sim.Task, _ PageNum, _ [][]byte, k func(error))  { d.do(t, k) }
func (d *stubDev) WriteTask(t *sim.Task, _ PageNum, _ [][]byte, k func(error)) { d.do(t, k) }
func (d *stubDev) Pending() int                                                { return 0 }
func (d *stubDev) Stats() *Stats                                               { return &d.stats }
func (d *stubDev) Format(func(PageNum, []byte)) error                          { return nil }

// TestRetryReissuesTransientFailureOnce drives one read or write through a
// Retry over a stub that fails its first requests: a transient failure is
// re-issued once, retryDelay of virtual time later; a second failure and
// ErrLost reach the caller without another attempt; every failed attempt
// is counted on its direction's counter.
func TestRetryReissuesTransientFailureOnce(t *testing.T) {
	cases := []struct {
		name    string
		failN   int
		failErr error
		want    error
		at      []time.Duration // the attempts' virtual times
	}{
		{"ok", 0, nil, nil, []time.Duration{0}},
		{"transient then ok", 1, errTransient, nil, []time.Duration{0, retryDelay}},
		{"transient twice", 2, errTransient, errTransient, []time.Duration{0, retryDelay}},
		{"lost", 2, ErrLost, ErrLost, []time.Duration{0}},
	}
	for _, tc := range cases {
		for _, write := range []bool{false, true} {
			stub := &stubDev{failN: tc.failN, failErr: tc.failErr, at: make([]time.Duration, 0, 4)}
			r := NewRetry(stub)
			env := sim.NewEnv()
			var got error
			var doneAt time.Duration
			completed := false
			env.Spawn("io", func(t *sim.Task) {
				k := func(err error) { got, doneAt, completed = err, t.Now(), true }
				if write {
					r.WriteTask(t, 0, nil, k)
				} else {
					r.ReadTask(t, 0, nil, k)
				}
			})
			env.Run(-1)
			if !completed || !errors.Is(got, tc.want) || (tc.want == nil) != (got == nil) {
				t.Fatalf("%s write=%v: completed %v with %v, want %v", tc.name, write, completed, got, tc.want)
			}
			if !slices.Equal(stub.at, tc.at) || doneAt != tc.at[len(tc.at)-1] {
				t.Errorf("%s write=%v: attempts at %v, done at %v; want attempts at %v", tc.name, write, stub.at, doneAt, tc.at)
			}
			failed := int64(min(tc.failN, len(tc.at)))
			wantR, wantW := failed, int64(0)
			if write {
				wantR, wantW = 0, failed
			}
			if r.ReadErrors != wantR || r.WriteErrors != wantW {
				t.Errorf("%s write=%v: ReadErrors %d WriteErrors %d, want %d %d", tc.name, write, r.ReadErrors, r.WriteErrors, wantR, wantW)
			}
		}
	}
}

// TestRetryAllocatesNothing pins a Retry request's steady state: a read
// and a write, each failing once and re-issued, then each succeeding at
// once, allocate nothing after the first round has filled the free list.
func TestRetryAllocatesNothing(t *testing.T) {
	stub := &stubDev{}
	r := NewRetry(stub)
	env := sim.NewEnv()
	var task *sim.Task
	env.Spawn("io", func(t *sim.Task) { task = t })
	env.Run(-1)
	n := 0
	k := func(err error) {
		if err != nil {
			t.Errorf("request failed: %v", err)
		}
		n++
	}
	round := func() {
		stub.failN, stub.failErr = 1, errTransient
		r.ReadTask(task, 0, nil, k)
		env.Run(-1)
		stub.failN = 1
		r.WriteTask(task, 0, nil, k)
		env.Run(-1)
		r.ReadTask(task, 0, nil, k)
		r.WriteTask(task, 0, nil, k)
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a round of four requests, two retried, allocates %v times", allocs)
	}
	// 102 rounds: the one above, AllocsPerRun's warm-up and its 100.
	if n != 4*102 || r.ReadErrors != 102 || r.WriteErrors != 102 {
		t.Errorf("%d completions, ReadErrors %d, WriteErrors %d; want %d, 102, 102", n, r.ReadErrors, r.WriteErrors, 4*102)
	}
}
