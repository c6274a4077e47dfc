// The engine-side implementation of storage.Store, so the access-method
// packages (btree, heapfile) can run unmodified inside a discrete-event
// experiment. ProcStore runs each operation on the calling process, through
// the engine's blocking entries (sim.Proc.Await over the task-form access
// path), and presents the synchronous copy-in/copy-out interface the access
// methods expect, which is what lets traversal-driven page access patterns
// emerge inside the simulated buffer pool.

package engine

import (
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
