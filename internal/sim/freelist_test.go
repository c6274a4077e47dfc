package sim

import (
	"errors"
	"testing"
	"time"
)

type pooled struct {
	n   int
	ref *int
}

// TestFreeListLIFOReuse: Get on an empty list returns a fresh zero element,
// and Put elements come back most recent first, the same pointers.
func TestFreeListLIFOReuse(t *testing.T) {
	var l FreeList[pooled]
	a := l.Get()
	if a == nil || *a != (pooled{}) {
		t.Fatalf("Get on an empty list = %+v, want a new zero element", a)
	}
	b := l.Get()
	if a == b {
		t.Fatal("two Gets on an empty list returned the same element")
	}
	a.n, b.n = 1, 2
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b {
		t.Fatalf("first Get after Put(a), Put(b) = %p, want b %p", got, b)
	}
	if got := l.Get(); got != a || got.n != 1 {
		t.Fatalf("second Get = %p (n=%d), want a %p (n=1)", got, got.n, a)
	}
	if got := l.Get(); got == a || got == b {
		t.Fatal("Get on a drained list returned a recycled element")
	}
}

// TestFreeListClearsPoppedSlot: the list's backing array holds no pointer to
// an element once Get has handed it out, so the list never keeps an element
// in use (or what it references) reachable.
func TestFreeListClearsPoppedSlot(t *testing.T) {
	var l FreeList[pooled]
	x := &pooled{}
	l.Put(x)
	backing := l.free[:1]
	if l.Get() != x {
		t.Fatal("Get did not return the element put")
	}
	if backing[0] != nil {
		t.Fatal("the popped slot still points at the element handed out")
	}
}

// TestFreeListAllocationFree: once the list holds an element, a Get/Put
// cycle allocates nothing.
func TestFreeListAllocationFree(t *testing.T) {
	var l FreeList[pooled]
	l.Put(l.Get())
	if n := testing.AllocsPerRun(1000, func() { l.Put(l.Get()) }); n != 0 {
		t.Errorf("a warm Get/Put cycle allocates %v", n)
	}
}

// TestWaitsDeliversValue: Await returns the value and error its task-form
// body completed with, whether the completion ran inside start (no park) or
// later from a continuation (the process parked until then).
func TestWaitsDeliversValue(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	boom := errors.New("boom")
	var ws Waits[int]
	var pending func(int, error)
	fire := func() { pending(8, boom) }
	syncStart := func(_ *Task, k func(int, error)) { k(7, nil) }
	parkedStart := func(task *Task, k func(int, error)) {
		pending = k
		task.Sleep(time.Microsecond, fire)
	}
	env.Call("sync", func(p *Proc) {
		before := env.Dispatched()
		if v, err := ws.Await(p, syncStart); v != 7 || err != nil {
			t.Errorf("synchronous completion: Await = (%d, %v), want (7, nil)", v, err)
		}
		if env.Dispatched() != before {
			t.Error("a synchronous completion dispatched an event")
		}
	})
	env.Call("parked", func(p *Proc) {
		at := p.Now()
		if v, err := ws.Await(p, parkedStart); v != 8 || err != boom {
			t.Errorf("parked completion: Await = (%d, %v), want (8, %v)", v, err, boom)
		}
		if p.Now() != at+time.Microsecond {
			t.Errorf("parked completion returned at %v, want %v", p.Now(), at+time.Microsecond)
		}
	})
}

// TestWaitsAllocationFree: once warm, Await allocates nothing on either
// path.
func TestWaitsAllocationFree(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	var ws Waits[*pooled]
	x := &pooled{}
	var pending func(*pooled, error)
	fire := func() { pending(x, nil) }
	syncStart := func(_ *Task, k func(*pooled, error)) { k(x, nil) }
	parkedStart := func(task *Task, k func(*pooled, error)) {
		pending = k
		task.Sleep(time.Microsecond, fire)
	}
	var got *pooled
	syncBody := func(p *Proc) { got, _ = ws.Await(p, syncStart) }
	parkedBody := func(p *Proc) { got, _ = ws.Await(p, parkedStart) }
	for name, body := range map[string]func(p *Proc){"synchronous": syncBody, "parked": parkedBody} {
		env.Call(name, body) // warm the pools
		if n := testing.AllocsPerRun(1000, func() { env.Call(name, body) }); n != 0 {
			t.Errorf("%s completion: Await allocates %v per call", name, n)
		}
		if got != x {
			t.Errorf("%s completion: Await returned %p, want %p", name, got, x)
		}
	}
}
