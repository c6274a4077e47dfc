package device

import (
	"time"

	"turbobp/internal/sim"
)

// Profile is the latency model of one simulated device, expressed as the
// service time of the first page of a request plus a per-page streaming time
// for the remainder. A request is "sequential" when it starts where the
// previous request on the device ended; sequential requests skip the
// positioning cost of the first page.
type Profile struct {
	RandRead  time.Duration // first page of a non-sequential read
	SeqRead   time.Duration // each subsequent / sequential page read
	RandWrite time.Duration // first page of a non-sequential write
	SeqWrite  time.Duration // each subsequent / sequential page written
}

// ProfileFromIOPS derives a Profile from sustained 1-page IOPS figures, as
// reported in the paper's Table 1: the sequential per-page time is 1/seqIOPS
// and the random first-page time is 1/randIOPS.
func ProfileFromIOPS(randRead, seqRead, randWrite, seqWrite float64) Profile {
	per := func(iops float64) time.Duration {
		return time.Duration(float64(time.Second) / iops)
	}
	return Profile{
		RandRead:  per(randRead),
		SeqRead:   per(seqRead),
		RandWrite: per(randWrite),
		SeqWrite:  per(seqWrite),
	}
}

// simDevice is a single-server queueing model of a storage device: requests
// are served FIFO, one at a time, each charging virtual time according to
// the Profile, with page payloads kept in a memstore.
type simDevice struct {
	res      *sim.Resource
	profile  Profile
	capacity PageNum
	head     PageNum // page following the last request (for sequential detection)
	store    *memstore
	stats    Stats

	// Free list of request states. Requests are taken per ioTask call and
	// returned at completion, so steady-state I/O allocates nothing; the pre-bound method continuations are created once
	// per state. The simulation kernel serializes access.
	reqFree []*ioReq
}

// ioReq carries one in-flight request through acquire → service → complete
// without per-call closures.
type ioReq struct {
	d     *simDevice
	t     *sim.Task
	page  PageNum
	bufs  [][]byte
	write bool
	dur   time.Duration
	seq   bool
	k     func(error)

	onAcquire func() // bound to (*ioReq).acquired once
	onDone    func() // bound to (*ioReq).done once
}

func (d *simDevice) getReq() *ioReq {
	if n := len(d.reqFree); n > 0 {
		r := d.reqFree[n-1]
		d.reqFree[n-1] = nil
		d.reqFree = d.reqFree[:n-1]
		return r
	}
	r := &ioReq{d: d}
	r.onAcquire = r.acquired
	r.onDone = r.done
	return r
}

// acquired runs when the device grants the request: cost is computed at
// service start (head position matters) and the completion is scheduled.
func (r *ioReq) acquired() {
	r.dur, r.seq = r.d.cost(r.page, len(r.bufs), r.write)
	r.t.Sleep(r.dur, r.onDone)
}

// done applies the request's effects at completion time and recycles the
// state before continuing, so k may immediately issue another request.
func (r *ioReq) done() {
	d := r.d
	d.complete(r.page, r.bufs, r.write, r.dur, r.seq)
	d.res.Release()
	k := r.k
	r.t, r.bufs, r.k = nil, nil, nil
	d.reqFree = append(d.reqFree, r)
	k(nil)
}

func newSimDevice(env *sim.Env, profile Profile, capacity PageNum) *simDevice {
	return &simDevice{
		res:      sim.NewResource(env, 1),
		profile:  profile,
		capacity: capacity,
		head:     -1,
		store:    &memstore{capacity: capacity},
	}
}

// cost returns the service time of an n-page request starting at page given
// the current head position.
func (d *simDevice) cost(page PageNum, n int, write bool) (time.Duration, bool) {
	seq := page == d.head
	first, rest := d.profile.RandRead, d.profile.SeqRead
	if write {
		first, rest = d.profile.RandWrite, d.profile.SeqWrite
	}
	if seq {
		first = rest
	}
	return first + time.Duration(n-1)*rest, seq
}

// complete applies a request's effects at its completion time: payload
// transfer, head movement and stats. It runs after the service time has
// been charged, so a sampler attributes it to the bucket it finished in.
func (d *simDevice) complete(page PageNum, bufs [][]byte, write bool, dur time.Duration, seq bool) {
	switch {
	case d.store == nil:
		if !write {
			for _, buf := range bufs {
				for i := range buf {
					buf[i] = 0
				}
			}
		}
	case write:
		for i, buf := range bufs {
			d.store.write(page+PageNum(i), buf)
		}
	default:
		for i, buf := range bufs {
			d.store.read(page+PageNum(i), buf)
		}
	}
	d.head = page + PageNum(len(bufs))
	if write {
		d.stats.WriteOps.Add(1)
		d.stats.WritePages.Add(int64(len(bufs)))
	} else {
		d.stats.ReadOps.Add(1)
		d.stats.ReadPages.Add(int64(len(bufs)))
	}
	d.stats.BusyNanos.Add(int64(dur))
	if seq {
		if write {
			d.stats.SeqWrites.Add(1)
		} else {
			d.stats.SeqReads.Add(1)
		}
	}
}

// ioTask serves one request. When the device is
// idle and the completion is provably the next dispatch, the whole request
// — queue entry, service time, completion — resolves analytically with no
// scheduler round-trip at all: AcquireFunc grants inline and Task.Sleep
// advances the clock inline.
func (d *simDevice) ioTask(t *sim.Task, page PageNum, bufs [][]byte, write bool, k func(error)) {
	if err := checkRange(page, len(bufs), d.capacity); err != nil {
		k(err)
		return
	}
	if len(bufs) == 0 {
		k(nil)
		return
	}
	r := d.getReq()
	r.t, r.page, r.bufs, r.write, r.k = t, page, bufs, write, k
	d.res.AcquireFunc(r.onAcquire)
}

// Read copies len(bufs) consecutive pages starting at page into bufs,
// blocking p for the request's queueing and service time.
func (d *simDevice) Read(p *sim.Proc, page PageNum, bufs [][]byte) error {
	return p.Await(func(t *sim.Task, done func(error)) { d.ioTask(t, page, bufs, false, done) })
}

// Write stores bufs as len(bufs) consecutive pages starting at page,
// blocking p for the request's queueing and service time.
func (d *simDevice) Write(p *sim.Proc, page PageNum, bufs [][]byte) error {
	return p.Await(func(t *sim.Task, done func(error)) { d.ioTask(t, page, bufs, true, done) })
}

// ReadTask is Read in continuation form: it continues t with k once the
// pages are in bufs, or with the range error of an out-of-bounds request.
func (d *simDevice) ReadTask(t *sim.Task, page PageNum, bufs [][]byte, k func(error)) {
	d.ioTask(t, page, bufs, false, k)
}

// WriteTask is Write in continuation form: it continues t with k once the
// pages are stored, or with the range error of an out-of-bounds request.
func (d *simDevice) WriteTask(t *sim.Task, page PageNum, bufs [][]byte, k func(error)) {
	d.ioTask(t, page, bufs, true, k)
}

// Format makes never-written pages read back as fill's bytes, storing nothing.
func (d *simDevice) Format(fill func(page PageNum, buf []byte)) error {
	if d.store != nil {
		d.store.fill = fill
	}
	return nil
}

// DiscardContent switches the device to a timing-only model: writes drop
// their payloads and reads return zero-filled pages. Timing, queueing and
// stats are unchanged. The engine uses it for the simulated log device,
// whose content is never read back — recovery replays the wal.Log's
// in-memory durable records instead — but whose ever-advancing write
// position would otherwise make the store retain a copy of every log page
// ever flushed. Those in-memory records are the log's to keep or drop: an
// owner that never crashes or recovers the engine, as the harness's
// fault-free runs, drops them too (wal.Log.DiscardDurable).
func (d *simDevice) DiscardContent() { d.store = nil }

// Pending reports the requests queued on or in service at the device.
func (d *simDevice) Pending() int { return d.res.Pending() }

// Stats returns the device's live operation counters.
func (d *simDevice) Stats() *Stats { return &d.stats }

// HDD is a simulated single hard disk drive.
type HDD struct{ simDevice }

// NewHDD returns a disk with the given latency profile and capacity.
func NewHDD(env *sim.Env, profile Profile, capacity PageNum) *HDD {
	return &HDD{*newSimDevice(env, profile, capacity)}
}

// SSD is a simulated flash solid-state drive.
type SSD struct{ simDevice }

// NewSSD returns an SSD with the given latency profile and capacity.
func NewSSD(env *sim.Env, profile Profile, capacity PageNum) *SSD {
	return &SSD{*newSimDevice(env, profile, capacity)}
}
