package device

import (
	"fmt"
	"os"
	"sync/atomic"

	"turbobp/internal/sim"
)

// File is a Device backed by an ordinary file, for running the engine
// against real storage. The sim.Proc argument of Read/Write is ignored (pass
// nil); calls block the OS thread for the duration of the real I/O.
//
// A File may be carved into Slices: page-range views that share the backing
// os.File but carry their own counters. Slices exist for the partitioned
// concurrent engine, whose device counters are plain (non-atomic) ints
// serialized by a per-partition lock — two partitions may do I/O on the same
// backing file at once, but each increments only its own slice's counters.
type File struct {
	f        *os.File
	pageSize int
	base     PageNum // first backing-file page of this view
	capacity PageNum
	owner    bool // owns (closes, truncates) the backing file
	pending  atomic.Int64
	stats    Stats
}

// OpenFile creates (or truncates) path as a device of capacity pages of
// pageSize bytes each.
func OpenFile(path string, pageSize int, capacity PageNum) (*File, error) {
	return openFile(path, pageSize, capacity, true)
}

// OpenFileExisting opens path as a device of capacity pages, keeping any
// existing contents (the file is extended with zero pages if shorter). This
// is the restart path: a database directory written by a previous process —
// including one that was killed mid-write — reopens with its pages and its
// persisted log intact.
func OpenFileExisting(path string, pageSize int, capacity PageNum) (*File, error) {
	return openFile(path, pageSize, capacity, false)
}

func openFile(path string, pageSize int, capacity PageNum, truncate bool) (*File, error) {
	if pageSize <= 0 || capacity < 0 {
		return nil, fmt.Errorf("device: bad file geometry pageSize=%d capacity=%d", pageSize, capacity)
	}
	flags := os.O_RDWR | os.O_CREATE
	if truncate {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	want := int64(pageSize) * int64(capacity)
	if truncate {
		if err := f.Truncate(want); err != nil {
			f.Close()
			return nil, err
		}
	} else if st, err := f.Stat(); err != nil {
		f.Close()
		return nil, err
	} else if st.Size() < want {
		if err := f.Truncate(want); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &File{f: f, pageSize: pageSize, capacity: capacity, owner: true}, nil
}

// Slice returns a view of pages [base, base+capacity) as an independent
// Device with zeroed counters. The view shares the backing os.File (ReadAt
// and WriteAt are safe for concurrent use at disjoint offsets); Close on a
// slice is a no-op and Sync flushes the whole backing file.
func (d *File) Slice(base, capacity PageNum) (*File, error) {
	if base < 0 || capacity < 0 || base+capacity > d.capacity {
		return nil, fmt.Errorf("device: slice [%d,%d) of %d pages", base, int64(base)+int64(capacity), d.capacity)
	}
	return &File{f: d.f, pageSize: d.pageSize, base: d.base + base, capacity: capacity}, nil
}

// Read fills bufs from the file. Each buffer must be exactly one page.
func (d *File) Read(_ *sim.Proc, page PageNum, bufs [][]byte) error {
	if err := d.check(page, bufs); err != nil {
		return err
	}
	d.pending.Add(1)
	defer d.pending.Add(-1)
	for i, buf := range bufs {
		off := (int64(d.base) + int64(page) + int64(i)) * int64(d.pageSize)
		if _, err := d.f.ReadAt(buf, off); err != nil {
			return fmt.Errorf("device: read page %d: %w", int64(page)+int64(i), err)
		}
	}
	d.stats.ReadOps.Add(1)
	d.stats.ReadPages.Add(int64(len(bufs)))
	return nil
}

// Write persists bufs to the file.
func (d *File) Write(_ *sim.Proc, page PageNum, bufs [][]byte) error {
	if err := d.check(page, bufs); err != nil {
		return err
	}
	d.pending.Add(1)
	defer d.pending.Add(-1)
	for i, buf := range bufs {
		off := (int64(d.base) + int64(page) + int64(i)) * int64(d.pageSize)
		if _, err := d.f.WriteAt(buf, off); err != nil {
			return fmt.Errorf("device: write page %d: %w", int64(page)+int64(i), err)
		}
	}
	d.stats.WriteOps.Add(1)
	d.stats.WritePages.Add(int64(len(bufs)))
	return nil
}

// ReadTask performs the real read synchronously (file I/O charges no
// virtual time) and continues with its result.
func (d *File) ReadTask(_ *sim.Task, page PageNum, bufs [][]byte, k func(error)) {
	k(d.Read(nil, page, bufs))
}

// WriteTask performs the real write synchronously and continues with its
// result.
func (d *File) WriteTask(_ *sim.Task, page PageNum, bufs [][]byte, k func(error)) {
	k(d.Write(nil, page, bufs))
}

func (d *File) check(page PageNum, bufs [][]byte) error {
	if err := checkRange(page, len(bufs), d.capacity); err != nil {
		return err
	}
	for _, buf := range bufs {
		if len(buf) != d.pageSize {
			return fmt.Errorf("device: buffer size %d != page size %d", len(buf), d.pageSize)
		}
	}
	return nil
}

// Preload writes data to page without counting it in the stats.
func (d *File) Preload(page PageNum, data []byte) error {
	if err := checkRange(page, 1, d.capacity); err != nil {
		return err
	}
	if len(data) != d.pageSize {
		return fmt.Errorf("device: preload size %d != page size %d", len(data), d.pageSize)
	}
	_, err := d.f.WriteAt(data, (int64(d.base)+int64(page))*int64(d.pageSize))
	return err
}

// Format writes fill's bytes to every page now, uncounted: a hole reads as zeros.
func (d *File) Format(fill func(page PageNum, buf []byte)) error {
	buf := make([]byte, d.pageSize)
	for page := PageNum(0); page < d.capacity; page++ {
		fill(page, buf)
		if err := d.Preload(page, buf); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes the backing file to stable storage (the whole file, even
// when called on a slice).
func (d *File) Sync() error { return d.f.Sync() }

// Close closes the backing file. On a slice it is a no-op: the owning File
// closes the shared handle.
func (d *File) Close() error {
	if !d.owner {
		return nil
	}
	return d.f.Close()
}

// Pending reports in-flight requests.
func (d *File) Pending() int { return int(d.pending.Load()) }

// Stats returns cumulative counters.
func (d *File) Stats() *Stats { return &d.stats }
