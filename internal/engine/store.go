// Engine-side implementations of storage.Store, so the access-method
// packages (btree, heapfile) can run unmodified inside a discrete-event
// experiment. ProcStore runs each operation on the calling process, through
// the engine's blocking entries (sim.Proc.Await over the task-form access
// path); TaskStore spawns each operation as a task of its own and parks the
// caller on a Signal until it completes. Both present the same synchronous
// copy-in/copy-out interface the access methods expect, which is what lets traversal-driven page access
// patterns emerge inside the simulated buffer pool.

package engine

import (
	"turbobp/internal/bufpool"
	"turbobp/internal/page"
	"turbobp/internal/sim"
)

// ProcStore adapts an Engine to storage.Store for code running inside a
// simulated process. Updates accumulate in one engine
// transaction that Commit seals; the next Update opens a fresh one.
// A ProcStore must only be used from its own Proc, never concurrently.
type ProcStore struct {
	e     *Engine
	p     *sim.Proc
	tx    uint64 // open transaction id; 0 = none
	alloc *int64 // shared allocation watermark (page id of next free page)
}

// NewProcStore returns a Store over e driven from process p. alloc is the
// allocation watermark, shared so that several Stores (and the harness)
// agree on the allocated prefix of the page space.
func NewProcStore(e *Engine, p *sim.Proc, alloc *int64) *ProcStore {
	return &ProcStore{e: e, p: p, alloc: alloc}
}

// PageSize returns the engine's page payload size.
func (s *ProcStore) PageSize() int { return s.e.cfg.PayloadSize }

// AllocPage advances the shared watermark and returns the new page id.
func (s *ProcStore) AllocPage() (int64, error) {
	if err := s.e.checkPage(page.ID(*s.alloc)); err != nil {
		return 0, err
	}
	pid := *s.alloc
	*s.alloc++
	return pid, nil
}

// Read copies page pid's payload into buf through the buffer pool.
func (s *ProcStore) Read(pid int64, buf []byte) (int, error) {
	f, err := s.e.Get(s.p, page.ID(pid))
	if err != nil {
		return 0, err
	}
	// The frame is only pinned until the next yield; copy before returning.
	return copy(buf, f.Pg.Payload), nil
}

// Update applies fn to page pid inside the current transaction, opening
// one if none is pending.
func (s *ProcStore) Update(pid int64, fn func(payload []byte)) error {
	if s.tx == 0 {
		s.tx = s.e.Begin()
	}
	return s.e.Update(s.p, s.tx, page.ID(pid), fn)
}

// Commit seals the pending transaction (WAL force). With no pending
// updates it is a no-op.
func (s *ProcStore) Commit() error {
	if s.tx == 0 {
		return nil
	}
	tx := s.tx
	s.tx = 0
	return s.e.Commit(s.p, tx)
}

// TaskStore adapts an Engine to storage.Store with each operation a spawned
// task. The calling Proc parks on a Signal while the operation runs, and the
// task's continuation records the result and broadcasts;
// the single-threaded kernel makes the handoff race-free (Spawn schedules
// the task event, Wait parks the proc before it dispatches). This keeps
// the access-method code synchronous while the engine work — pool
// lookups, SSD admission, WAL appends — executes through the same pooled
// continuation chains as the OLTP workers. The Spawn and the Signal wakeup
// are two same-instant events per call that ProcStore's Await does not
// schedule; the index and policy goldens are recorded with them.
type TaskStore struct {
	e     *Engine
	p     *sim.Proc
	sig   *sim.Signal
	tx    uint64
	alloc *int64
}

// NewTaskStore returns a Store over e whose operations run as spawned tasks,
// driven (and awaited) from process p. alloc is the shared allocation
// watermark, as for NewProcStore.
func NewTaskStore(e *Engine, p *sim.Proc, alloc *int64) *TaskStore {
	return &TaskStore{e: e, p: p, sig: sim.NewSignal(e.env), alloc: alloc}
}

// PageSize returns the engine's page payload size.
func (s *TaskStore) PageSize() int { return s.e.cfg.PayloadSize }

// AllocPage advances the shared watermark and returns the new page id.
func (s *TaskStore) AllocPage() (int64, error) {
	if err := s.e.checkPage(page.ID(*s.alloc)); err != nil {
		return 0, err
	}
	pid := *s.alloc
	*s.alloc++
	return pid, nil
}

// Read copies page pid's payload into buf via a spawned GetTask.
func (s *TaskStore) Read(pid int64, buf []byte) (int, error) {
	var n int
	var rerr error
	s.e.env.Spawn("store-get", func(t *sim.Task) {
		s.e.GetTask(t, page.ID(pid), func(f *bufpool.Frame, err error) {
			if err == nil {
				// Copy inside the continuation: the frame is unpinned the
				// moment the task chain ends.
				n = copy(buf, f.Pg.Payload)
			}
			rerr = err
			s.sig.Broadcast()
		})
	})
	s.sig.Wait(s.p)
	return n, rerr
}

// Update applies fn to page pid via a spawned UpdateTask inside the
// current transaction, opening one if none is pending.
func (s *TaskStore) Update(pid int64, fn func(payload []byte)) error {
	if s.tx == 0 {
		s.tx = s.e.Begin()
	}
	var rerr error
	s.e.env.Spawn("store-update", func(t *sim.Task) {
		s.e.UpdateTask(t, s.tx, page.ID(pid), fn, func(err error) {
			rerr = err
			s.sig.Broadcast()
		})
	})
	s.sig.Wait(s.p)
	return rerr
}

// Commit seals the pending transaction via a spawned CommitTask. With no
// pending updates it is a no-op.
func (s *TaskStore) Commit() error {
	if s.tx == 0 {
		return nil
	}
	tx := s.tx
	s.tx = 0
	var rerr error
	s.e.env.Spawn("store-commit", func(t *sim.Task) {
		s.e.CommitTask(t, tx, func(err error) {
			rerr = err
			s.sig.Broadcast()
		})
	})
	s.sig.Wait(s.p)
	return rerr
}
