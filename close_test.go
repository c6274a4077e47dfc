package turbobp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"turbobp/internal/sim"
)

// TestClosedPartitionRefusesWork: once Close has shut a partition's
// environment down, the partition runs no further body and reports
// ErrClosed — the path an operation takes when it passed DB.closed before
// Close began and then waited on the partition mutex.
func TestClosedPartitionRefusesWork(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			db := b.open(t, Options{Design: LC, DBPages: 64, PoolPages: 16, SSDFrames: 32, PageSize: 64})
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			for i, pt := range db.parts {
				err := pt.run("probe", func(*sim.Proc) error {
					t.Errorf("partition %d ran a body after Close", i)
					return nil
				})
				if !errors.Is(err, ErrClosed) {
					t.Errorf("partition %d after Close: %v, want ErrClosed", i, err)
				}
			}
		})
	}
}

// TestCloseRacesOperations closes a DB while goroutines mix Reads and
// Updates on it: each operation either completes or reports ErrClosed —
// none panics on the stopped environment, none fails otherwise.
func TestCloseRacesOperations(t *testing.T) {
	const (
		trials  = 50
		workers = 4
		closeAt = 200 // operations completed before Close
	)
	for trial := 0; trial < trials; trial++ {
		db, err := Open(Options{Design: LC, DBPages: 64, PoolPages: 16, SSDFrames: 32, PageSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		var ops atomic.Int64
		started := make(chan struct{})
		var wg sync.WaitGroup
		failures := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						failures <- fmt.Sprintf("worker %d panicked: %v", w, r)
					}
				}()
				buf := make([]byte, 64)
				for i := 0; ; i++ {
					pid := int64((w*17 + i) % 64)
					var err error
					if i%2 == 0 {
						_, err = db.Read(pid, buf)
					} else {
						err = db.Update(pid, func(p []byte) { p[0]++ })
					}
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						failures <- fmt.Sprintf("worker %d: %v", w, err)
						return
					}
					if ops.Add(1) == closeAt {
						close(started)
					}
				}
			}(w)
		}
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-started:
		case <-finished: // every worker failed before closeAt: reported below
		}
		if err := db.Close(); err != nil {
			t.Fatalf("trial %d: Close: %v", trial, err)
		}
		<-finished
		close(failures)
		for f := range failures {
			t.Errorf("trial %d: %s", trial, f)
		}
		if t.Failed() {
			return
		}
	}
}
