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
// multi-page I/O optimization (§3.3.3). The interface is task form only
// (ReadTask, WriteTask); a blocking simulation process issues a request
// through the package's Read and Write helpers.
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

// Device is a page-granular block device, in task form only. ReadTask and
// WriteTask perform a request on behalf of a sim.Task and deliver the result
// to k — a simulated device from the scheduler, once the request's queueing
// and service time have elapsed; a range error, or the real-file backend's
// syscall, before the call returns. Callers must treat them as tail calls
// (no code after). A blocking process issues a request through the Read and
// Write helpers below, which run it under sim.Proc.Await.
//
// bufs holds one page-sized buffer per page of a contiguous run starting at
// page: a read fills them, a write persists copies of them. They remain in
// the device's hands until the request completes.
type Device interface {
	ReadTask(t *sim.Task, page PageNum, bufs [][]byte, k func(error))
	WriteTask(t *sim.Task, page PageNum, bufs [][]byte, k func(error))
	// Pending reports the number of in-flight plus queued requests; the SSD
	// throttle-control optimization (§3.3.2) polls this.
	Pending() int
	// Stats returns the device's cumulative I/O counters.
	Stats() *Stats
	// Format gives the device its initial content, fill(page, buf) for
	// every page, outside of simulated time.
	Format(fill func(page PageNum, buf []byte)) error
}

// Read is dev.ReadTask for the blocking process p: it returns once the
// pages are in bufs, p parked for the modelled duration. Over a device
// that completes inside the call (device.File), p may be nil.
func Read(p *sim.Proc, dev Device, page PageNum, bufs [][]byte) error {
	return p.Await(func(t *sim.Task, done func(error)) { dev.ReadTask(t, page, bufs, done) })
}

// Write is dev.WriteTask for the blocking process p, as Read is for reads.
func Write(p *sim.Proc, dev Device, page PageNum, bufs [][]byte) error {
	return p.Await(func(t *sim.Task, done func(error)) { dev.WriteTask(t, page, bufs, done) })
}

// Stats holds cumulative I/O counters for one device. The fields are plain
// int64s, not atomics (DESIGN.md, "Statistics"): every writer and reader
// runs under the simulation kernel's serialization, so a copy of the
// struct (*dev.Stats()) is a snapshot, and metrics.Sub of two snapshots is
// an interval's traffic.
type Stats struct {
	ReadOps    int64 // I/O requests (a multi-page request counts once)
	WriteOps   int64
	ReadPages  int64 // pages transferred
	WritePages int64
	SeqReads   int64 // requests served without a seek penalty
	SeqWrites  int64
	BusyNanos  int64 // total service time charged
}

func checkRange(page PageNum, n int, capacity PageNum) error {
	if page < 0 || n < 0 || PageNum(int64(page)+int64(n)) > capacity {
		return fmt.Errorf("%w: pages [%d,%d) of %d", ErrOutOfRange, page, int64(page)+int64(n), capacity)
	}
	return nil
}
