package sim

// FreeList is a LIFO free list of *T: the one recycling mechanism behind
// every pooled operation state of the task form (an Await call, a device
// request, an engine access, an SSD-manager operation), so steady-state
// traffic allocates nothing. The zero value is an empty list. Like the rest
// of the kernel it is used under the simulation's serialization, with no
// locking.
//
// Get hands back a zero T the first time and a recycled one afterwards; a
// state whose continuations are method values binds them on the Get that
// finds them nil, not in a constructor closure, so the receiver they name
// is the state's owner at its final address (a simDevice is copied into
// its HDD or SSD wrapper after construction).
type FreeList[T any] struct{ free []*T }

// Get pops the most recently put element, or returns a new zero T when the
// list is empty. The popped slot is cleared, so the list holds no reference
// to an element in use.
func (l *FreeList[T]) Get() *T {
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Put returns x for reuse by a later Get. The caller must have dropped the
// references x holds that should not outlive the operation, and must not
// touch x afterwards: the next Get may hand it out at once.
func (l *FreeList[T]) Put(x *T) { l.free = append(l.free, x) }
