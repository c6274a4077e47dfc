// Package device models the storage devices of the paper's testbed and the
// I/O interface the storage engine uses to reach them.
//
// Two families of implementation exist behind the same Device interface:
//
//   - Simulated devices (HDD, Array, SSD) that charge virtual time on a
//     sim.Env according to latency models calibrated to the paper's Table 1
//     IOPS measurements, while storing page payloads in memory. These drive
//     every experiment reproduction.
//   - A real-file backend (File) that performs ordinary os.File I/O, used by
//     the runnable examples and by durability tests.
//
// All devices are page-granular: a request names a starting page number and
// a slice of page buffers for a contiguous run, matching the paper's
// multi-page I/O optimization (§3.3.3).
package device

import (
	"errors"
	"fmt"

	"turbobp/internal/sim"
)

// PageNum identifies a page on a device, starting at 0.
type PageNum int64

// ErrOutOfRange is returned for requests beyond a device's capacity.
var ErrOutOfRange = errors.New("device: page out of range")

// ErrLost reports that the device as a whole has failed (e.g. a dead SSD):
// every operation fails until the device is replaced. Callers distinguish
// it (errors.Is) from transient per-request errors, which may be retried or
// routed around; the engine reacts to a lost SSD by rebuilding its cache on
// a replacement device and recovering uniquely-dirty pages from the WAL.
var ErrLost = errors.New("device: device lost")

// Device is a page-granular block device. ReadTask and WriteTask are the
// implementation: they perform the request on behalf of a sim.Task and
// deliver the result to k — inline when the device queue is empty and the
// completion time can be computed analytically, otherwise via the
// scheduler. Callers must treat them as tail calls (no code after). Read
// and Write run the same request for a blocking simulation process through
// sim.Proc.Await, parking it for the modelled duration; for the real-file
// backend, whose I/O is a blocking syscall that completes before the call
// returns, p may be nil.
//
// bufs holds one page-sized buffer per page of a contiguous run starting at
// page: a read fills them, a write persists copies of them. They remain in
// the device's hands until the request completes.
type Device interface {
	Read(p *sim.Proc, page PageNum, bufs [][]byte) error
	Write(p *sim.Proc, page PageNum, bufs [][]byte) error
	ReadTask(t *sim.Task, page PageNum, bufs [][]byte, k func(error))
	WriteTask(t *sim.Task, page PageNum, bufs [][]byte, k func(error))
	// Pending reports the number of in-flight plus queued requests; the SSD
	// throttle-control optimization (§3.3.2) polls this.
	Pending() int
	// Stats returns the device's cumulative I/O counters.
	Stats() *Stats
}

// Formatter is implemented by devices that can take their initial content,
// fill(page, buf) for every page, outside of simulated time.
type Formatter interface {
	Format(fill func(page PageNum, buf []byte)) error
}

// Counter is a cumulative I/O counter. It is deliberately not atomic: every
// writer and reader runs under the simulation kernel's serialization (procs
// hand off execution one at a time, samplers are simulation processes
// themselves), the same discipline the devices' buffer free lists already
// rely on. Keeping the counters plain keeps the per-request hot path free
// of synchronized memory operations.
type Counter struct{ v int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v += d }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v }

// Stats holds cumulative I/O counters for one device.
type Stats struct {
	ReadOps    Counter // I/O requests (a multi-page request counts once)
	WriteOps   Counter
	ReadPages  Counter // pages transferred
	WritePages Counter
	SeqReads   Counter // requests served without a seek penalty
	SeqWrites  Counter
	BusyNanos  Counter // total service time charged
}

// Snapshot is a plain-value copy of Stats at one instant.
type Snapshot struct {
	ReadOps, WriteOps     int64
	ReadPages, WritePages int64
	SeqReads, SeqWrites   int64
	BusyNanos             int64
}

// Load returns a point-in-time copy of the counters.
func (s *Stats) Load() Snapshot {
	return Snapshot{
		ReadOps:    s.ReadOps.Load(),
		WriteOps:   s.WriteOps.Load(),
		ReadPages:  s.ReadPages.Load(),
		WritePages: s.WritePages.Load(),
		SeqReads:   s.SeqReads.Load(),
		SeqWrites:  s.SeqWrites.Load(),
		BusyNanos:  s.BusyNanos.Load(),
	}
}

// Sub returns the delta s minus prev, for per-interval bandwidth series.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		ReadOps:    s.ReadOps - prev.ReadOps,
		WriteOps:   s.WriteOps - prev.WriteOps,
		ReadPages:  s.ReadPages - prev.ReadPages,
		WritePages: s.WritePages - prev.WritePages,
		SeqReads:   s.SeqReads - prev.SeqReads,
		SeqWrites:  s.SeqWrites - prev.SeqWrites,
		BusyNanos:  s.BusyNanos - prev.BusyNanos,
	}
}

func checkRange(page PageNum, n int, capacity PageNum) error {
	if page < 0 || n < 0 || PageNum(int64(page)+int64(n)) > capacity {
		return fmt.Errorf("%w: pages [%d,%d) of %d", ErrOutOfRange, page, int64(page)+int64(n), capacity)
	}
	return nil
}
