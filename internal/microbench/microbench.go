// Package microbench holds the steady-state hot-path microbenchmarks of
// the simulator. Each function drives b.N operations inside the simulation
// — the engine benchmarks as one task issuing them back to back, so they
// time the access path itself, with the scheduler round trip of each of its
// sleeps, and not the process bridge in front of it —
// with all setup (engine construction, pool warm-up) done before the timer
// starts, so ns/op and allocs/op measure only the repeated operation. The
// same functions back the root-package Benchmark wrappers (`go test
// -bench`) and the benchmark's per-layer metrics (bench/), via
// testing.Benchmark.
//
// The read path (GetHit, GetMiss) is expected to run at ~0 allocs/op:
// page buffers, WAL records and scheduler events all come from free lists,
// and LRU-2 history lives in the pool's and the SSD tier's frame tables.
// UpdateCommit and GroupClean additionally exercise the WAL slab and the
// SSD manager's pooled cleaning scratch; UpdateCommit retains a small
// residual (the simulated log device stores each freshly written log page
// once).
package microbench

import (
	"testing"

	"turbobp/internal/bufpool"
	"turbobp/internal/device"
	"turbobp/internal/engine"
	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
)

const payload = 64

// newEngine builds a formatted engine on a fresh Env.
func newEngine(b *testing.B, cfg engine.Config) (*sim.Env, *engine.Engine) {
	b.Helper()
	env := sim.NewEnv()
	e := engine.New(env, cfg)
	if err := e.FormatDB(); err != nil {
		b.Fatal(err)
	}
	return env, e
}

// drive runs fn to completion inside a simulation process.
func drive(b *testing.B, env *sim.Env, fn func(p *sim.Proc) error) {
	b.Helper()
	var err error
	env.Go("bench", func(p *sim.Proc) {
		err = fn(p)
	})
	env.Run(-1)
	if err != nil {
		b.Fatal(err)
	}
}

// taskLoop issues n operations back to back on one task: op issues
// operation l.i-1 and completes into l.next (or l.onFrame), which issues the
// following one. Every operation here charges CPU time, a queued sleep, so
// each completion runs from the scheduler's loop and the chain never nests
// on the stack.
type taskLoop struct {
	t    *sim.Task
	i, n int
	err  error
	op   func(l *taskLoop)

	next    func(error)                 // bound to step once
	onFrame func(*bufpool.Frame, error) // bound: a GetTask completion into step
}

func (l *taskLoop) step(err error) {
	if err != nil || l.i == l.n {
		l.err = err
		return
	}
	l.i++
	l.op(l)
}

// driveTask runs a taskLoop of n operations to completion.
func driveTask(b *testing.B, env *sim.Env, n int, op func(l *taskLoop)) {
	b.Helper()
	l := &taskLoop{n: n, op: op}
	l.next = l.step
	l.onFrame = func(_ *bufpool.Frame, err error) { l.step(err) }
	env.Spawn("bench", func(t *sim.Task) {
		l.t = t
		l.step(nil)
	})
	env.Run(-1)
	if l.err != nil {
		b.Fatal(l.err)
	}
}

// GetHit measures a buffer-pool hit: Get on a page already resident.
func GetHit(b *testing.B) {
	const db = 512
	env, e := newEngine(b, engine.Config{
		Config:    ssd.Config{Design: ssd.NoSSD, PayloadSize: payload},
		DBPages:   db,
		PoolPages: db + 64, // whole database stays resident
	})
	defer env.Shutdown()
	drive(b, env, func(p *sim.Proc) error { // warm every page
		for i := int64(0); i < db; i++ {
			if _, err := e.Get(p, page.ID(i)); err != nil {
				return err
			}
		}
		return nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	driveTask(b, env, b.N, func(l *taskLoop) { e.GetTask(l.t, page.ID(int64(l.i-1)%db), l.onFrame) })
	b.StopTimer()
	e.StopBackground()
}

// GetMiss measures a buffer-pool miss on the noSSD path: clean eviction,
// disk read into a pooled buffer, decode, LRU-2 insert.
func GetMiss(b *testing.B) {
	const db, pool = 4096, 256
	env, e := newEngine(b, engine.Config{
		Config:        ssd.Config{Design: ssd.NoSSD, PayloadSize: payload},
		DBPages:       db,
		PoolPages:     pool,
		ReadExpansion: -1, // keep every miss a single-page read
	})
	defer env.Shutdown()
	drive(b, env, func(p *sim.Proc) error { // fill the pool once
		for i := int64(0); i < pool+16; i++ {
			if _, err := e.Get(p, page.ID(i)); err != nil {
				return err
			}
		}
		return nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	// A cyclic sweep over a database 16x the pool never re-hits under
	// LRU-2: every Get is a miss with a clean eviction.
	driveTask(b, env, b.N, func(l *taskLoop) { e.GetTask(l.t, page.ID((pool+15+int64(l.i))%db), l.onFrame) })
	b.StopTimer()
	e.StopBackground()
}

// UpdateCommit measures an in-pool update plus a commit (WAL append,
// group flush to the simulated log device).
func UpdateCommit(b *testing.B) {
	const db = 512
	env, e := newEngine(b, engine.Config{
		Config:    ssd.Config{Design: ssd.NoSSD, PayloadSize: payload},
		DBPages:   db,
		PoolPages: db + 64,
	})
	defer env.Shutdown()
	drive(b, env, func(p *sim.Proc) error {
		for i := int64(0); i < db; i++ {
			if _, err := e.Get(p, page.ID(i)); err != nil {
				return err
			}
		}
		return nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	var (
		loop *taskLoop
		tx   uint64
	)
	bump := func(pl []byte) { pl[0]++ }
	onUpdated := func(err error) {
		if err != nil {
			loop.step(err)
			return
		}
		e.CommitTask(loop.t, tx, loop.next)
	}
	driveTask(b, env, b.N, func(l *taskLoop) {
		loop, tx = l, e.Begin()
		e.UpdateTask(l.t, tx, page.ID(int64(l.i-1)%db), bump, onUpdated)
	})
	b.StopTimer()
	e.StopBackground()
}

// arrayDisk adapts a device.Array to the ssd.Disk sink interface.
type arrayDisk struct{ arr *device.Array }

// WriteEncodedTask writes the encoded page run to the array at start.
func (d arrayDisk) WriteEncodedTask(t *sim.Task, start page.ID, bufs [][]byte, k func(error)) {
	d.arr.WriteTask(t, device.PageNum(start), bufs, k)
}

// GroupClean measures one LC cleaning cycle at the SSD-manager level:
// α dirty admissions followed by a FlushDirty that gathers the
// contiguous run, reads it back from the SSD and writes it to disk as a
// single multi-page I/O.
func GroupClean(b *testing.B) {
	const frames, alpha = 256, 32
	env := sim.NewEnv()
	defer env.Shutdown()
	dev := device.NewSSD(env, device.PaperSSDProfile(), frames)
	arr := device.NewArray(env, device.PaperHDDProfile(), 1, 64, 4096)
	m := ssd.NewManager(env, dev, arrayDisk{arr}, nil, 4096, ssd.Config{
		Design:      ssd.LC,
		SSDFrames:   frames,
		GroupClean:  alpha,
		PayloadSize: payload,
	})
	pg := &page.Page{Payload: make([]byte, payload)}
	var lsn uint64
	cycle := func(p *sim.Proc) error {
		for j := int64(0); j < alpha; j++ {
			lsn++
			pg.ID = page.ID(j)
			pg.LSN = lsn
			if err := m.OnEvict(p, pg, true, true); err != nil {
				return err
			}
		}
		return m.FlushDirty(p)
	}
	drive(b, env, cycle) // warm the frame table and free lists
	b.ReportAllocs()
	b.ResetTimer()
	drive(b, env, func(p *sim.Proc) error {
		for i := 0; i < b.N; i++ {
			if err := cycle(p); err != nil {
				return err
			}
		}
		return nil
	})
	b.StopTimer()
}
