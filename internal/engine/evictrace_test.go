package engine

import (
	"encoding/binary"
	"fmt"
	"testing"

	"turbobp/btree"
	"turbobp/heapfile"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
)

// These tests pin down the in-flight dirty-eviction race: claimFrame pops
// the victim from the pool table, then the WAL force and SSD/disk writeback
// yield to the simulator — and before Engine.evicting existed, a concurrent
// access of the victim page in that window read the stale device image.
// Eight workers growing private B+-trees and heapfiles over a pool far
// smaller than the working set evict each other's dirty pages constantly,
// which is exactly the trigger; structure traversals then consume the torn
// pages (the original symptom was a slice-bounds panic in heapfile.Insert
// on a zero page). The big-pool variant pins the no-eviction baseline.

func runEvictRace(t *testing.T, workers, pool int) {
	env := sim.NewEnv()
	e := New(env, Config{Config: ssd.Config{Design: ssd.DW, SSDFrames: 256, PayloadSize: 256}, DBPages: 8192, PoolPages: pool})
	if err := e.FormatDB(); err != nil {
		t.Fatal(err)
	}
	var alloc int64
	const perWorker = 300
	heapMeta := make([]int64, workers)
	treeMeta := make([]int64, workers)
	ready := sim.NewSignal(env)
	env.Go("load", func(p *sim.Proc) {
		st := NewProcStore(e, p, &alloc)
		for w := 0; w < workers; w++ {
			f, err := heapfile.Create(st)
			if err != nil {
				t.Error(err)
				return
			}
			tr, err := btree.Create(st)
			if err != nil {
				t.Error(err)
				return
			}
			heapMeta[w] = f.Meta()
			treeMeta[w] = tr.Meta()
		}
		if err := st.Commit(); err != nil {
			t.Error(err)
		}
		ready.Broadcast()
	})
	procs := make([]*sim.Proc, workers)
	for w := 0; w < workers; w++ {
		w := w
		procs[w] = env.Go("worker", func(p *sim.Proc) {
			st := NewProcStore(e, p, &alloc)
			ready.WaitFired(p)
			f, err := heapfile.Open(st, heapMeta[w])
			if err != nil {
				t.Error(err)
				return
			}
			tr, err := btree.Open(st, treeMeta[w])
			if err != nil {
				t.Error(err)
				return
			}
			rids := make([]heapfile.RID, perWorker)
			rec := make([]byte, 16)
			for i := int64(0); i < perWorker; i++ {
				binary.LittleEndian.PutUint64(rec, uint64(w))
				binary.LittleEndian.PutUint64(rec[8:], uint64(i))
				rid, err := f.Insert(rec)
				if err != nil {
					t.Errorf("w%d insert %d: %v", w, i, err)
					return
				}
				rids[i] = rid
				if err := tr.Insert(i, rid.Page); err != nil {
					t.Errorf("w%d tree insert %d: %v", w, i, err)
					return
				}
				if err := st.Commit(); err != nil {
					t.Errorf("w%d commit %d: %v", w, i, err)
					return
				}
			}
			// Verify every insert survived its neighbours' eviction pressure:
			// the tree resolves each key and the heap record's content is the
			// (worker, i) stamp written above.
			if n, err := tr.Size(); err != nil || n != perWorker {
				t.Errorf("w%d tree size = %d, %v; want %d", w, n, err, perWorker)
				return
			}
			for i := int64(0); i < perWorker; i++ {
				pg, err := tr.Search(i)
				if err != nil {
					t.Errorf("w%d search %d: %v", w, i, err)
					return
				}
				if pg != rids[i].Page {
					t.Errorf("w%d search %d = page %d, want %d", w, i, pg, rids[i].Page)
					return
				}
				got, err := f.Get(rids[i])
				if err != nil {
					t.Errorf("w%d get %v: %v", w, rids[i], err)
					return
				}
				gw := binary.LittleEndian.Uint64(got)
				gi := binary.LittleEndian.Uint64(got[8:])
				if gw != uint64(w) || gi != uint64(i) {
					t.Errorf("w%d record %d = (%d,%d), want (%d,%d)", w, i, gw, gi, w, i)
					return
				}
			}
		})
	}
	env.Go("join", func(p *sim.Proc) {
		for _, wp := range procs {
			wp.Done().WaitFired(p)
		}
		e.StopBackground()
	})
	env.Run(-1)
	env.Shutdown()
	if pool <= 64 && e.Stats().DirtyEvicts == 0 {
		t.Fatal("expected dirty evictions; the scenario no longer exercises the writeback window")
	}
}

func TestEvictRaceProc(t *testing.T)       { runEvictRace(t, 8, 32) }
func TestEvictRaceNoPressure(t *testing.T) { runEvictRace(t, 8, 2048) }

// TestEvictRaceDesigns runs the concurrent-eviction scenario under every
// SSD design: the writeback window differs per design (LC lands only on
// the SSD, CW only on disk, DW on both), so each routes the waiting
// readers through a different durable copy.
func TestEvictRaceDesigns(t *testing.T) {
	for _, d := range []ssd.Design{ssd.NoSSD, ssd.CW, ssd.DW, ssd.LC, ssd.TAC} {
		d := d
		t.Run(fmt.Sprint(d), func(t *testing.T) { runEvictRaceDesign(t, d) })
	}
}

func runEvictRaceDesign(t *testing.T, design ssd.Design) {
	env := sim.NewEnv()
	e := New(env, Config{Config: ssd.Config{Design: design, SSDFrames: 256, PayloadSize: 256}, DBPages: 8192, PoolPages: 32})
	if err := e.FormatDB(); err != nil {
		t.Fatal(err)
	}
	var alloc int64
	const workers, per = 4, 150
	metas := make([]int64, workers)
	ready := sim.NewSignal(env)
	env.Go("load", func(p *sim.Proc) {
		st := NewProcStore(e, p, &alloc)
		for w := 0; w < workers; w++ {
			tr, err := btree.Create(st)
			if err != nil {
				t.Error(err)
				return
			}
			metas[w] = tr.Meta()
		}
		if err := st.Commit(); err != nil {
			t.Error(err)
		}
		ready.Broadcast()
	})
	procs := make([]*sim.Proc, workers)
	for w := 0; w < workers; w++ {
		w := w
		procs[w] = env.Go("worker", func(p *sim.Proc) {
			st := NewProcStore(e, p, &alloc)
			ready.WaitFired(p)
			tr, err := btree.Open(st, metas[w])
			if err != nil {
				t.Error(err)
				return
			}
			for i := int64(0); i < per; i++ {
				if err := tr.Insert(i*7, int64(w)*per+i); err != nil {
					t.Errorf("w%d insert %d: %v", w, i, err)
					return
				}
				if err := st.Commit(); err != nil {
					t.Errorf("w%d commit %d: %v", w, i, err)
					return
				}
			}
			for i := int64(0); i < per; i++ {
				v, err := tr.Search(i * 7)
				if err != nil || v != int64(w)*per+i {
					t.Errorf("w%d search %d = %d, %v; want %d", w, i, v, err, int64(w)*per+i)
					return
				}
			}
		})
	}
	env.Go("join", func(p *sim.Proc) {
		for _, wp := range procs {
			wp.Done().WaitFired(p)
		}
		e.StopBackground()
	})
	env.Run(-1)
	env.Shutdown()
}
