package fault

import (
	"fmt"

	"turbobp/internal/device"
	"turbobp/internal/sim"
)

// Device wraps a device.Device with the injector's fault plan for one
// device name. It is a device.Device itself, in task form like every other
// (a blocking caller goes through device.Read and device.Write), and
// consults the plan before every request:
//
//   - whole-device loss: at the scheduled total-operation count the device
//     dies; every operation from then on returns device.ErrLost until
//     Replace installs a fresh device under the same name,
//   - injected I/O errors: the scheduled Nth read/write fails with
//     ErrInjectedIO (transient: the next operation succeeds),
//   - torn writes: the scheduled write persists only a prefix of the
//     request and reports success.
//
// Operation counters live on the shared plan, so the per-name schedule
// keeps counting across Replace.
type Device struct {
	in    *Injector
	name  string
	plan  *devPlan
	inner device.Device
	lost  bool
}

var _ device.Device = (*Device)(nil)

// Lost reports whether the device has failed for good.
func (d *Device) Lost() bool { return d.lost }

// Replace models swapping in a fresh, healthy device at the same mount
// point after a loss: the lost latch clears and operations flow to the
// inner device again. Prior contents of the inner device are irrelevant —
// a rebuilt SSD manager never reads a frame it has not first written.
func (d *Device) Replace() {
	if d.lost {
		d.in.note("device %s replaced after loss", d.name)
	}
	d.lost = false
}

// checkOp advances the per-name counters and returns this operation's
// index on its side of the schedule plus the injected error, if any. write
// selects the write-side schedule; the returned tear (keepBytes, true)
// applies only to writes.
func (d *Device) checkOp(write bool) (idx, tear int, torn bool, err error) {
	pl := d.plan
	op := pl.ops
	pl.ops++
	if write {
		idx = pl.writes
		pl.writes++
	} else {
		idx = pl.reads
		pl.reads++
	}
	if !pl.lossDone && pl.loseAt >= 0 && op >= pl.loseAt {
		pl.lossDone = true
		d.lost = true
		d.in.note("device %s lost at operation %d", d.name, op)
	}
	if d.lost {
		return idx, 0, false, fmt.Errorf("fault: device %s: %w", d.name, device.ErrLost)
	}
	if write {
		if pl.writeErrs[idx] {
			delete(pl.writeErrs, idx)
			d.in.note("device %s write %d failed (injected)", d.name, idx)
			return idx, 0, false, fmt.Errorf("fault: device %s write %d: %w", d.name, idx, ErrInjectedIO)
		}
		if keep, ok := pl.tears[idx]; ok {
			delete(pl.tears, idx)
			d.in.note("device %s write %d torn after %d bytes", d.name, idx, keep)
			return idx, keep, true, nil
		}
	} else if pl.readErrs[idx] {
		delete(pl.readErrs, idx)
		d.in.note("device %s read %d failed (injected)", d.name, idx)
		return idx, 0, false, fmt.Errorf("fault: device %s read %d: %w", d.name, idx, ErrInjectedIO)
	}
	return idx, 0, false, nil
}

// maybePlantRot services a RotOnRead schedule: the read with index idx
// plants decay on the first slot it covers, with the flipped bit drawn
// from the injector's PRNG.
func (d *Device) maybePlantRot(idx int, page device.PageNum, bufs [][]byte) {
	pl := d.plan
	if !pl.rotOnRead[idx] || len(bufs) == 0 || len(bufs[0]) == 0 {
		return
	}
	delete(pl.rotOnRead, idx)
	bit := uint(d.in.Rand() % uint64(8*len(bufs[0])))
	pl.rot[int64(page)] = bit
	d.in.note("device %s read %d decayed slot %d (bit %d)", d.name, idx, int64(page), bit)
}

// applyRot flips the planted bits in freshly-read buffers. The read has
// already reported success; only checksums can see the lie.
func (d *Device) applyRot(page device.PageNum, bufs [][]byte) {
	pl := d.plan
	if len(pl.rot) == 0 {
		return
	}
	for i, b := range bufs {
		if bit, ok := pl.rot[int64(page)+int64(i)]; ok && int(bit/8) < len(b) {
			b[bit/8] ^= 1 << (bit % 8)
		}
	}
}

// settleWrite accounts for fresh data landing on n slots starting at page:
// ordinary rot is overwritten away, sticky rot (a failing cell) re-arms.
func (d *Device) settleWrite(page device.PageNum, n int) {
	pl := d.plan
	if len(pl.rot) == 0 && len(pl.sticky) == 0 {
		return
	}
	for i := 0; i < n; i++ {
		slot := int64(page) + int64(i)
		if bit, ok := pl.sticky[slot]; ok {
			pl.rot[slot] = bit
		} else {
			delete(pl.rot, slot)
		}
	}
}

// redirect services a MisdirectWrite schedule: write idx lands delta slots
// away from where the caller asked.
func (d *Device) redirect(idx int, page device.PageNum) device.PageNum {
	pl := d.plan
	delta, ok := pl.misdirect[idx]
	if !ok {
		return page
	}
	delete(pl.misdirect, idx)
	target := device.PageNum(int64(page) + delta)
	d.in.note("device %s write %d misdirected: slot %d -> %d", d.name, idx, int64(page), int64(target))
	return target
}

// ReadTask serves the request from the inner device unless a fault applies:
// the fault check happens at request time, planted rot is applied to the
// returned buffers when the inner read completes.
func (d *Device) ReadTask(t *sim.Task, page device.PageNum, bufs [][]byte, k func(error)) {
	idx, _, _, err := d.checkOp(false)
	if err != nil {
		k(err)
		return
	}
	d.maybePlantRot(idx, page, bufs)
	if len(d.plan.rot) == 0 {
		// No decay anywhere on this device: hand k through untouched so
		// the fault-free hot path stays allocation-free.
		d.inner.ReadTask(t, page, bufs, k)
		return
	}
	d.inner.ReadTask(t, page, bufs, func(err error) {
		if err == nil {
			d.applyRot(page, bufs)
		}
		k(err)
	})
}

// WriteTask persists the request to the inner device unless a fault applies.
// A scheduled torn write persists only the first keepBytes bytes: whole pages
// before the tear point are written normally, the torn page is written with
// its unwritten remainder zero-filled, and later pages are dropped. The
// torn write still completes successfully — real torn writes are silent.
func (d *Device) WriteTask(t *sim.Task, page device.PageNum, bufs [][]byte, k func(error)) {
	idx, keep, torn, err := d.checkOp(true)
	if err != nil {
		k(err)
		return
	}
	page = d.redirect(idx, page)
	if !torn {
		d.settleWrite(page, len(bufs))
		d.inner.WriteTask(t, page, bufs, k)
		return
	}
	out := make([][]byte, 0, len(bufs))
	for _, b := range bufs {
		if keep <= 0 {
			break
		}
		if keep >= len(b) {
			out = append(out, b)
			keep -= len(b)
			continue
		}
		part := make([]byte, len(b)) // zero tail: the tear zero-fills the page
		copy(part, b[:keep])
		out = append(out, part)
		keep = 0
	}
	if len(out) == 0 {
		k(nil)
		return
	}
	d.settleWrite(page, len(out))
	d.inner.WriteTask(t, page, out, k)
}

// Format formats the inner device. Formatting models loading the database
// before the measured (and faulted) run, so no faults apply.
func (d *Device) Format(fill func(page device.PageNum, buf []byte)) error {
	return d.inner.Format(fill)
}

// Pending reports the inner device's in-flight requests.
func (d *Device) Pending() int { return d.inner.Pending() }

// Stats returns the inner device's counters, so harness samplers see the
// same numbers with or without the wrapper.
func (d *Device) Stats() *device.Stats { return d.inner.Stats() }
