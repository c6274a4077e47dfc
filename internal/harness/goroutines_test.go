package harness

import (
	"runtime"
	"testing"
	"time"
)

// TestExperimentLeavesNoGoroutines audits the simulator's goroutine
// hygiene: after a full experiment run (engines, device queues, background
// checkpointer/cleaner processes, Shutdown) the process must be back to
// its baseline goroutine count — nothing parked forever on a channel.
func TestExperimentLeavesNoGoroutines(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	baseline := runtime.NumGoroutine()
	RunTable1()
	if _, err := Fig5TPCC(tiny); err != nil {
		t.Fatal(err)
	}
	// Exited goroutines may take a beat to be reaped.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d after experiments, baseline %d", runtime.NumGoroutine(), baseline)
}
