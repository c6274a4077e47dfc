package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"turbobp/btree"
	"turbobp/heapfile"
	"turbobp/internal/engine"
	"turbobp/internal/fault"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
)

// Shadow-model property tests: a B+-tree and a heapfile run through the
// simulated engine while plain Go maps mirror every mutation. After each
// committed batch — and after a crash/recover cycle armed at a WAL-flush
// crash point mid-run — the structures must agree with the maps exactly:
// every key resolves, Range enumerates the sorted model, every record
// round-trips, and Scan sees precisely the live set. The crash fires at fault.SitePostWALFlush during a batch's
// commit: the log force completed, so the batch is durable even though the
// commit was never acknowledged — the atomic-batch contract the btree and
// heapfile package docs promise.

// shadowModel mirrors the tree and heap contents in plain maps.
type shadowModel struct {
	tree map[int64]int64
	heap map[heapfile.RID][]byte
}

func newShadowModel() *shadowModel {
	return &shadowModel{tree: map[int64]int64{}, heap: map[heapfile.RID][]byte{}}
}

// verify checks the live structures against the model exhaustively.
func (m *shadowModel) verify(tr *btree.Tree, hf *heapfile.File) error {
	n, err := tr.Size()
	if err != nil {
		return err
	}
	if n != uint64(len(m.tree)) {
		return fmt.Errorf("tree size %d, model %d", n, len(m.tree))
	}
	for k, v := range m.tree {
		got, err := tr.Search(k)
		if err != nil {
			return fmt.Errorf("search %d: %w", k, err)
		}
		if got != v {
			return fmt.Errorf("search %d = %d, model %d", k, got, v)
		}
	}
	// Range over the whole key space must enumerate the model in order.
	prev := int64(-1 << 62)
	seen := 0
	err = tr.Range(-1<<62, 1<<62-1, func(k, v int64) error {
		if k <= prev {
			return fmt.Errorf("range out of order: %d after %d", k, prev)
		}
		prev = k
		want, ok := m.tree[k]
		if !ok {
			return fmt.Errorf("range surfaced key %d not in model", k)
		}
		if v != want {
			return fmt.Errorf("range key %d = %d, model %d", k, v, want)
		}
		seen++
		return nil
	})
	if err != nil {
		return err
	}
	if seen != len(m.tree) {
		return fmt.Errorf("range saw %d keys, model %d", seen, len(m.tree))
	}
	cnt, err := hf.Count()
	if err != nil {
		return err
	}
	if cnt != uint64(len(m.heap)) {
		return fmt.Errorf("heap count %d, model %d", cnt, len(m.heap))
	}
	for rid, rec := range m.heap {
		got, err := hf.Get(rid)
		if err != nil {
			return fmt.Errorf("get %v: %w", rid, err)
		}
		if !bytes.Equal(got, rec) {
			return fmt.Errorf("get %v = %x, model %x", rid, got, rec)
		}
	}
	scanned := 0
	err = hf.Scan(func(rid heapfile.RID, rec []byte) error {
		want, ok := m.heap[rid]
		if !ok {
			return fmt.Errorf("scan surfaced %v not in model", rid)
		}
		if !bytes.Equal(rec, want) {
			return fmt.Errorf("scan %v = %x, model %x", rid, rec, want)
		}
		scanned++
		return nil
	})
	if err != nil {
		return err
	}
	if scanned != len(m.heap) {
		return fmt.Errorf("scan saw %d records, model %d", scanned, len(m.heap))
	}
	return nil
}

// applyBatch runs one batch of random mutations against the structures and
// returns the model deltas; the caller folds them in once the batch commits.
type batchDelta struct {
	treePut map[int64]int64
	treeDel []int64
	heapPut map[heapfile.RID][]byte
	heapDel []heapfile.RID
}

func runBatch(rng *rand.Rand, m *shadowModel, tr *btree.Tree, hf *heapfile.File) (*batchDelta, error) {
	d := &batchDelta{treePut: map[int64]int64{}, heapPut: map[heapfile.RID][]byte{}}
	// Candidates for delete/update come from the committed model minus what
	// this batch already deleted (map iteration may hand the same entry out
	// twice within one batch).
	delK := map[int64]bool{}
	delR := map[heapfile.RID]bool{}
	// Both pickers scan for the minimum so the script is deterministic —
	// Go map iteration order would otherwise vary the op sequence per run.
	pickKey := func() (int64, bool) {
		best, ok := int64(0), false
		for k := range m.tree {
			if !delK[k] && (!ok || k < best) {
				best, ok = k, true
			}
		}
		return best, ok
	}
	pickRID := func() (heapfile.RID, bool) {
		var best heapfile.RID
		ok := false
		for rid := range m.heap {
			if delR[rid] {
				continue
			}
			if !ok || rid.Page < best.Page || (rid.Page == best.Page && rid.Slot < best.Slot) {
				best, ok = rid, true
			}
		}
		return best, ok
	}
	for op := 0; op < 4; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // insert a fresh key + record
			k := rng.Int63n(1 << 20)
			v := rng.Int63()
			if err := tr.Insert(k, v); err != nil {
				return nil, fmt.Errorf("tree insert %d: %w", k, err)
			}
			d.treePut[k] = v
			rec := make([]byte, 16)
			binary.LittleEndian.PutUint64(rec, uint64(k))
			binary.LittleEndian.PutUint64(rec[8:], uint64(v))
			rid, err := hf.Insert(rec)
			if err != nil {
				return nil, fmt.Errorf("heap insert: %w", err)
			}
			d.heapPut[rid] = rec
		case 6, 7: // delete an existing key / record, if any
			if k, ok := pickKey(); ok {
				if err := tr.Delete(k); err != nil {
					return nil, fmt.Errorf("tree delete %d: %w", k, err)
				}
				d.treeDel = append(d.treeDel, k)
				delK[k] = true
				// A reinsert earlier in this batch is dead now; dropping it
				// keeps fold's delete-then-put order honest.
				delete(d.treePut, k)
			}
			if rid, ok := pickRID(); ok {
				if err := hf.Delete(rid); err != nil {
					return nil, fmt.Errorf("heap delete %v: %w", rid, err)
				}
				d.heapDel = append(d.heapDel, rid)
				delR[rid] = true
				delete(d.heapPut, rid)
			}
		case 8: // overwrite an existing record in place
			if rid, ok := pickRID(); ok {
				rec := make([]byte, 16)
				binary.LittleEndian.PutUint64(rec, rng.Uint64())
				binary.LittleEndian.PutUint64(rec[8:], rng.Uint64())
				if err := hf.UpdateRecord(rid, rec); err != nil {
					return nil, fmt.Errorf("heap update %v: %w", rid, err)
				}
				d.heapPut[rid] = rec
			}
		case 9: // re-insert an existing key with a new value
			if k, ok := pickKey(); ok {
				v := rng.Int63()
				if err := tr.Insert(k, v); err != nil {
					return nil, fmt.Errorf("tree reinsert %d: %w", k, err)
				}
				d.treePut[k] = v
			}
		}
	}
	return d, nil
}

func (m *shadowModel) fold(d *batchDelta) {
	// Deletes first: a batch may delete a key (or free a heap slot) and then
	// insert the same key (or reuse the slot) later in the batch, in which
	// case the put must win.
	for _, k := range d.treeDel {
		delete(m.tree, k)
	}
	for _, rid := range d.heapDel {
		delete(m.heap, rid)
	}
	for k, v := range d.treePut {
		m.tree[k] = v
	}
	for rid, rec := range d.heapPut {
		m.heap[rid] = rec
	}
}

// runShadow drives the property test under one SSD design. With crash set,
// a SitePostWALFlush crash point is armed mid-run: the commit that trips it
// has already forced the log, so after Crash+Recover the batch must be
// durably present in full.
func runShadow(t *testing.T, design ssd.Design, crash bool) {
	inj := fault.New(7)
	env := sim.NewEnv()
	e := engine.New(env, engine.Config{
		Config:  ssd.Config{Design: design, SSDFrames: 512, PayloadSize: 256, Faults: inj},
		DBPages: 8192, PoolPages: 48,
	})
	if err := e.FormatDB(); err != nil {
		t.Fatal(err)
	}
	var alloc int64
	env.Go("shadow-driver", func(p *sim.Proc) {
		defer e.StopBackground()
		st := engine.NewProcStore(e, p, &alloc)
		tr, err := btree.Create(st)
		if err != nil {
			t.Error(err)
			return
		}
		hf, err := heapfile.Create(st)
		if err != nil {
			t.Error(err)
			return
		}
		treeMeta, heapMeta := tr.Meta(), hf.Meta()
		if err := st.Commit(); err != nil {
			t.Error(err)
			return
		}
		rng := rand.New(rand.NewSource(0x5AD0))
		m := newShadowModel()
		crashed := false
		const rounds = 120
		for r := 0; r < rounds; r++ {
			if crash && r == rounds/2 {
				// Arm the crash point on the next WAL force — this batch's
				// commit. Mid-batch a tree insert may be splitting pages; the
				// post-flush site guarantees the whole batch is durable anyway.
				inj.ArmCrash(fault.SitePostWALFlush, 1)
			}
			d, err := runBatch(rng, m, tr, hf)
			if err != nil {
				t.Errorf("round %d: %v", r, err)
				return
			}
			err = st.Commit()
			if errors.Is(err, fault.ErrCrashPoint) {
				crashed = true
				e.Crash()
				if err := e.Recover(p); err != nil {
					t.Errorf("recover: %v", err)
					return
				}
				// The log force completed before the crash, so the whole
				// batch is durable despite the unacknowledged commit.
				m.fold(d)
				if tr, err = btree.Open(st, treeMeta); err != nil {
					t.Errorf("reopen tree: %v", err)
					return
				}
				if hf, err = heapfile.Open(st, heapMeta); err != nil {
					t.Errorf("reopen heap: %v", err)
					return
				}
				if err := m.verify(tr, hf); err != nil {
					t.Errorf("post-recovery round %d: %v", r, err)
					return
				}
				continue
			}
			if err != nil {
				t.Errorf("commit round %d: %v", r, err)
				return
			}
			m.fold(d)
			if r%20 == 19 {
				if err := m.verify(tr, hf); err != nil {
					t.Errorf("round %d: %v", r, err)
					return
				}
			}
		}
		if crash && !crashed {
			t.Error("crash point never fired")
			return
		}
		if err := m.verify(tr, hf); err != nil {
			t.Errorf("final: %v", err)
		}
	})
	env.Run(-1)
	env.Shutdown()
}

// runShadowDesigns runs the property test under every design: the same
// script must leave the same contents whichever SSD design caches them.
func runShadowDesigns(t *testing.T, crash bool) {
	for _, design := range []ssd.Design{ssd.NoSSD, ssd.CW, ssd.DW, ssd.LC, ssd.TAC} {
		t.Run(design.String(), func(t *testing.T) { runShadow(t, design, crash) })
	}
}

func TestShadowProc(t *testing.T)      { runShadowDesigns(t, false) }
func TestShadowProcCrash(t *testing.T) { runShadowDesigns(t, true) }
