package microbench

import (
	"testing"
	"time"

	"turbobp/internal/pagetab"
	"turbobp/internal/sim"
)

// The flat-structure benchmarks isolate the two data structures the
// simulator hot paths were migrated onto: the pagetab open-addressing table
// (vs the plain Go map it replaced) and the calendar-queue event scheduler
// (vs the reference binary heap). Each pair runs the identical workload so
// the two ns/op readings give the ratio directly.

// tableKeys is sized like a busy shard directory: large enough to defeat
// L1 but small enough that both implementations stay cache-resident.
const tableKeys = 4096

// TableChurn measures pagetab steady-state churn: lookup, update, and a
// delete/reinsert pair per iteration, over a resident working set.
func TableChurn(b *testing.B) {
	tab := pagetab.New[int64](tableKeys)
	for i := uint64(0); i < tableKeys; i++ {
		tab.Put(i*64, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i%tableKeys) * 64
		v, _ := tab.Get(k)
		tab.Put(k, v+1)
		tab.Delete(k)
		tab.Put(k, v)
	}
}

// MapChurn is TableChurn on the plain Go map pagetab replaced.
func MapChurn(b *testing.B) {
	tab := make(map[uint64]int64, tableKeys)
	for i := uint64(0); i < tableKeys; i++ {
		tab[i*64] = int64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i%tableKeys) * 64
		v := tab[k]
		tab[k] = v + 1
		delete(tab, k)
		tab[k] = v
	}
}

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
