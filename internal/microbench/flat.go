package microbench

import (
	"testing"
	"time"

	"turbobp/internal/sim"
)

// schedulerPending keeps this many events in flight: sixteen times the
// deepest queue any experiment holds at divisors 8192, 1024 and 256 (128
// pending; a sim_oltp pass holds at most 35). It is a deep-queue case, not
// the traffic of a run, which also peeks at the head about twice per push.
const schedulerPending = 2048

// SchedulerCalendar measures the scheduler's event queue, the binary heap
// behind sim.EventQueue: steady-state push/pop throughput with a standing
// population of pending events whose delays mix the scheduler's regimes,
// same-instant wakeups, sub-millisecond jitter and device-scale sleeps. It
// keeps the name of the calendar queue the heap replaced, which the
// benchmark's sim.sched_calendar_ns row calls it by.
func SchedulerCalendar(b *testing.B) {
	q := sim.NewEventQueue()
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
