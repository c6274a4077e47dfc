// Package loadbench is the one implementation of verified load over the
// wire protocol, and holds the file backend's wall-clock benchmarks.
//
// Verified load (load.go): self-describing page stamps, SendTx, the one
// Writer with its per-page ledger, and Verify, which holds every written
// page to its acked floor, sent ceiling, previous reading and pair
// partner. bpeload's plain mode runs them once after its readers and
// writers stop; RunChaos (chaos.go) runs them around kill -9 restarts of
// a real bpeserve.
//
// Benchmarks (this file): point reads and update+commit transactions of
// the partitioned file backend at 1/4/8 worker goroutines, and the
// group-commit fsync-amortization measurement. Unlike internal/microbench
// (virtual-time, single-threaded) these run real goroutines against a
// real-file turbobp.DB, so ns/op moves with the machine's core count;
// every report should sit next to the effective-parallelism numbers
// (harness.EffectiveWorkers). The root-package Benchmark wrappers
// (bench_concurrent_test.go) run them.
package loadbench

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"turbobp"
)

const (
	dbPages  = 1024
	pageSize = 128
)

// openDB builds a partitioned file-backed DB sized so the whole database
// fits in the buffer pool (reads exercise the latched fast path, not the
// disk).
func openDB(b *testing.B, mode turbobp.CommitSyncMode) *turbobp.DB {
	b.Helper()
	db, err := turbobp.Open(turbobp.Options{
		Design:      turbobp.LC,
		DBPages:     dbPages,
		PoolPages:   2 * dbPages,
		SSDFrames:   dbPages,
		PageSize:    pageSize,
		Dir:         b.TempDir(),
		Concurrency: 4,
		CommitSync:  mode,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// warm touches every page once so the pool is fully resident.
func warm(b *testing.B, db *turbobp.DB) {
	b.Helper()
	buf := make([]byte, pageSize)
	for pid := int64(0); pid < dbPages; pid++ {
		if _, err := db.Read(pid, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// runWorkers splits b.N operations over the worker goroutines.
func runWorkers(b *testing.B, workers int, fn func(w, ops int)) {
	b.Helper()
	per, extra := b.N/workers, b.N%workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := per
		if w < extra {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			fn(w, n)
		}(w, n)
	}
	wg.Wait()
}

// ConcurrentGet measures point reads of resident pages from the given
// number of concurrent goroutines. ns/op is aggregate: total wall time
// over total operations, so with real cores behind the workers it drops as
// workers rise.
func ConcurrentGet(b *testing.B, workers int) {
	db := openDB(b, turbobp.CommitSyncNone)
	warm(b, db)
	b.ResetTimer()
	runWorkers(b, workers, func(w, ops int) {
		rng := rand.New(rand.NewSource(int64(w + 1)))
		buf := make([]byte, pageSize)
		for i := 0; i < ops; i++ {
			if _, err := db.Read(rng.Int63n(dbPages), buf); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// ConcurrentUpdateCommit measures single-page committed updates (with
// group-commit durability) from the given number of concurrent goroutines.
func ConcurrentUpdateCommit(b *testing.B, workers int) {
	db := openDB(b, turbobp.CommitSyncGroup)
	warm(b, db)
	b.ResetTimer()
	runWorkers(b, workers, func(w, ops int) {
		rng := rand.New(rand.NewSource(int64(100 + w)))
		for i := 0; i < ops; i++ {
			err := db.Update(rng.Int63n(dbPages), func(p []byte) {
				binary.LittleEndian.PutUint64(p, uint64(i))
			})
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// CommitFsyncs runs committed updates from 8 goroutines under the given
// durability mode and returns the measured fsyncs per commit (1.0 in
// CommitSyncEach mode; well under 1 with group commit once committers
// overlap). The ratio is also reported as a benchmark metric.
func CommitFsyncs(b *testing.B, mode turbobp.CommitSyncMode) float64 {
	const workers = 8
	db := openDB(b, mode)
	warm(b, db)
	before := db.Stats()
	b.ResetTimer()
	runWorkers(b, workers, func(w, ops int) {
		rng := rand.New(rand.NewSource(int64(500 + w)))
		for i := 0; i < ops; i++ {
			err := db.Update(rng.Int63n(dbPages), func(p []byte) {
				binary.LittleEndian.PutUint64(p, uint64(i))
			})
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	s := db.Stats()
	commits := s.SyncedCommits - before.SyncedCommits
	syncs := s.WALSyncs - before.WALSyncs
	if commits == 0 {
		return 0
	}
	ratio := float64(syncs) / float64(commits)
	b.ReportMetric(ratio, "fsyncs/commit")
	return ratio
}
