// Package storage defines the page-level storage-access interface that
// the access-method layer (package btree, package heapfile) is written
// against. Two implementations satisfy it: the public turbobp.DB
// (file-backed or simulated devices behind the public API) and the
// internal simulation adapter over internal/engine (engine.ProcStore,
// which runs each operation on the calling simulated process), so the
// same B+-tree traversal or heap-file scan can run against a real
// database or inside a discrete-event experiment. This is what lets
// page access patterns in the `bpesim index` experiment *emerge* from
// structure traversal instead of being sampled from a distribution.
package storage

// Store is a flat page space with copy-in/copy-out access. Page ids are
// dense from 0; AllocPage extends the allocated prefix. Implementations
// are single-writer per Store value: callers must not invoke methods of
// one Store concurrently (the turbobp.DB behind it may be shared by many
// Stores, each from its own goroutine or simulated process).
type Store interface {
	// PageSize returns the usable payload bytes per page. It is constant
	// for the life of the Store.
	PageSize() int

	// AllocPage returns the next unallocated page id and marks it
	// allocated. Freshly allocated pages read as zeroes.
	AllocPage() (int64, error)

	// Read copies the page payload into buf and returns the number of
	// bytes copied (min of PageSize and len(buf)).
	Read(pid int64, buf []byte) (int, error)

	// Update applies fn to the page payload as one atomic page write.
	// The payload passed to fn is valid only for the call.
	Update(pid int64, fn func(payload []byte)) error

	// Commit makes all Updates since the previous Commit durable as one
	// transaction. Implementations whose Update is already autocommitted
	// (turbobp.DB outside an explicit Tx) make this a no-op.
	Commit() error
}
