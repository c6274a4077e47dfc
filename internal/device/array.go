package device

import (
	"fmt"

	"turbobp/internal/sim"
)

// Array is a striped set of disks presenting one flat page space, like the
// paper's eight-HDD file group. Pages are striped in units of StripeUnit
// pages: global pages [k*u, (k+1)*u) live on disk k % len(disks), at local
// pages [(k/len(disks))*u, ...). Requests that span several disks are issued
// to those disks in parallel.
type Array struct {
	env        *sim.Env
	disks      []*HDD
	stripeUnit PageNum
	capacity   PageNum
	stats      Stats
}

// NewArray stripes capacity pages across n fresh disks with the given
// profile. stripeUnit is in pages (the paper's SQL Server file groups use
// 64-page, 512 KB extents-of-extents; anything >= 1 works).
func NewArray(env *sim.Env, profile Profile, n int, stripeUnit, capacity PageNum) *Array {
	if n < 1 || stripeUnit < 1 {
		panic(fmt.Sprintf("device: bad array geometry n=%d unit=%d", n, stripeUnit))
	}
	perDisk := (capacity + PageNum(n) - 1) / PageNum(n)
	// Round per-disk capacity up to whole stripe units.
	perDisk = (perDisk + stripeUnit - 1) / stripeUnit * stripeUnit
	a := &Array{env: env, disks: make([]*HDD, n), stripeUnit: stripeUnit, capacity: capacity}
	for i := range a.disks {
		a.disks[i] = NewHDD(env, profile, perDisk)
		a.disks[i].rollup = &a.stats
	}
	return a
}

// locate maps a global page to (disk index, local page).
func (a *Array) locate(page PageNum) (int, PageNum) {
	unit := page / a.stripeUnit
	disk := int(unit % PageNum(len(a.disks)))
	local := (unit/PageNum(len(a.disks)))*a.stripeUnit + page%a.stripeUnit
	return disk, local
}

// run is one per-disk contiguous piece of a request.
type run struct {
	disk  int
	local PageNum
	bufs  [][]byte
}

// split carves a request into per-disk runs, preserving order.
func (a *Array) split(page PageNum, bufs [][]byte) []run {
	var runs []run
	for len(bufs) > 0 {
		disk, local := a.locate(page)
		// Pages remaining in this stripe unit.
		left := int(a.stripeUnit - page%a.stripeUnit)
		if left > len(bufs) {
			left = len(bufs)
		}
		runs = append(runs, run{disk: disk, local: local, bufs: bufs[:left]})
		page += PageNum(left)
		bufs = bufs[left:]
	}
	return runs
}

// runTask issues one run to its member disk.
func (a *Array) runTask(t *sim.Task, r run, write bool, k func(error)) {
	d := a.disks[r.disk]
	if write {
		d.WriteTask(t, r.local, r.bufs, k)
		return
	}
	d.ReadTask(t, r.local, r.bufs, k)
}

// doTask serves one request: range check, stats accounting, splitting into
// per-disk runs and a parallel fan-out joined before k. Single-stripe
// requests (every single-page I/O) forward straight to the member disk,
// with no join.
func (a *Array) doTask(t *sim.Task, page PageNum, bufs [][]byte, write bool, k func(error)) {
	if err := checkRange(page, len(bufs), a.capacity); err != nil {
		k(err)
		return
	}
	if len(bufs) == 0 {
		k(nil)
		return
	}
	if write {
		a.stats.WriteOps++
		a.stats.WritePages += int64(len(bufs))
	} else {
		a.stats.ReadOps++
		a.stats.ReadPages += int64(len(bufs))
	}
	if int(a.stripeUnit-page%a.stripeUnit) >= len(bufs) {
		disk, local := a.locate(page)
		a.runTask(t, run{disk: disk, local: local, bufs: bufs}, write, k)
		return
	}
	runs := a.split(page, bufs)
	if len(runs) == 1 {
		a.runTask(t, runs[0], write, k)
		return
	}
	// Fan the runs out to their disks in parallel and join.
	var firstErr error
	remaining := len(runs)
	done := sim.NewSignal(a.env)
	for _, r := range runs {
		r := r
		a.env.Spawn("array-io", func(child *sim.Task) {
			a.runTask(child, r, write, func(err error) {
				if err != nil && firstErr == nil {
					firstErr = err
				}
				remaining--
				if remaining == 0 {
					done.Broadcast()
				}
			})
		})
	}
	if remaining > 0 {
		done.WaitFunc(func() { k(firstErr) })
		return
	}
	k(firstErr)
}

// ReadTask performs a (possibly multi-disk) page-run read.
func (a *Array) ReadTask(t *sim.Task, page PageNum, bufs [][]byte, k func(error)) {
	a.doTask(t, page, bufs, false, k)
}

// WriteTask performs a (possibly multi-disk) page-run write.
func (a *Array) WriteTask(t *sim.Task, page PageNum, bufs [][]byte, k func(error)) {
	a.doTask(t, page, bufs, true, k)
}

// Format formats every member disk with fill, translating each disk's local
// page back to its global page (the inverse of locate).
func (a *Array) Format(fill func(page PageNum, buf []byte)) error {
	n, unit := PageNum(len(a.disks)), a.stripeUnit
	for i, d := range a.disks {
		err := d.Format(func(local PageNum, buf []byte) {
			fill((local/unit*n+PageNum(i))*unit+local%unit, buf)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Pending sums the pending requests of the member disks.
func (a *Array) Pending() int {
	total := 0
	for _, d := range a.disks {
		total += d.Pending()
	}
	return total
}

// Stats returns the array's counters. Requests and pages count array-level
// requests (a request that spans disks counts once); busy time and
// sequential hits are those of the member disks, so BusyNanos sums over
// spindles and can exceed the elapsed time.
func (a *Array) Stats() *Stats { return &a.stats }
