package microbench

import (
	"testing"
	"time"

	"turbobp/internal/sim"
)

// The scheduler pair runs the identical workload on the production
// calendar-queue event scheduler and the reference binary heap it
// replaced, so the two ns/op readings give the ratio directly.

// schedulerPending keeps this many events in flight, on the order of the
// process population of a large experiment cell.
const schedulerPending = 2048

// schedulerQueue measures steady-state push/pop throughput with a standing
// population of pending events whose delays mix the scheduler's regimes:
// same-instant wakeups, sub-bucket jitter and device-scale sleeps.
func schedulerQueue(b *testing.B, calendar bool) {
	q := sim.NewEventQueue(calendar)
	delay := func(i int) time.Duration {
		switch i & 3 {
		case 0:
			return 0 // same-instant handoff
		case 1:
			return time.Duration(i%97) * time.Microsecond
		default:
			return time.Duration(i%11) * time.Millisecond
		}
	}
	for i := 0; i < schedulerPending; i++ {
		q.Push(q.Now() + delay(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := q.Pop(); !ok {
			b.Fatal("queue drained")
		}
		q.Push(q.Now() + delay(i))
	}
}

// SchedulerCalendar measures the production calendar-queue scheduler.
func SchedulerCalendar(b *testing.B) { schedulerQueue(b, true) }

// SchedulerHeap measures the reference binary-heap scheduler it replaced.
func SchedulerHeap(b *testing.B) { schedulerQueue(b, false) }
