package ssd

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"time"

	"turbobp/internal/page"
	"turbobp/internal/sim"
)

// TestInvariantsUnderRandomOps drives every design with a randomized mix
// of evictions, reads, invalidations, cleaner activity and checkpoints,
// checking structural invariants after every batch. Each stream's subtest
// is named after the order both SSD heaps keep, LRU-2 (§3.1).
func TestInvariantsUnderRandomOps(t *testing.T) {
	for _, design := range []Design{CW, DW, LC, TAC} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(design.String(), func(t *testing.T) {
				t.Run("lru2", func(t *testing.T) {
					randomOps(t, design, seed)
				})
			})
		}
	}
}

// randomOps is one TestInvariantsUnderRandomOps stream: design driven by
// seed.
func randomOps(t *testing.T, design Design, seed int64) {
	f := newFixture(design, 24, func(c *Config) {
		c.Partitions = 4
		c.DirtyFraction = 0.4
		c.FillThreshold = 0.8
	})
	f.m.StartCleaner()
	rng := rand.New(rand.NewSource(seed))
	dirtied := map[page.ID]bool{} // memory-side dirty shadow
	f.run(t, func(p *sim.Proc) {
		for i := 0; i < 400; i++ {
			pid := page.ID(rng.Intn(60))
			switch rng.Intn(5) {
			case 0, 1: // clean eviction
				if !dirtied[pid] {
					if err := f.m.OnEvict(p, mkPage(pid, uint64(i), byte(i)), false, rng.Intn(4) != 0); err != nil {
						t.Fatal(err)
					}
				}
			case 2: // dirty eviction
				if err := f.m.OnEvict(p, mkPage(pid, uint64(i), byte(i)), true, true); err != nil {
					t.Fatal(err)
				}
				dirtied[pid] = false
			case 3: // read
				buf := mkPage(0, 0, 0)
				if _, err := f.m.Read(p, pid, buf); err != nil {
					t.Fatal(err)
				}
			case 4: // the page gets dirtied in memory
				f.m.Invalidate(pid)
				dirtied[pid] = true
			}
			if i%25 == 24 {
				p.Sleep(5 * time.Millisecond) // let the cleaner run
				if err := f.m.CheckInvariants(); err != nil {
					t.Fatalf("after op %d: %v", i, err)
				}
			}
			if i%150 == 149 && design == LC {
				f.m.SetCheckpointing(true)
				if err := f.m.FlushDirty(p); err != nil {
					t.Fatal(err)
				}
				f.m.SetCheckpointing(false)
				if f.m.DirtyCount() != 0 {
					t.Fatalf("dirty pages survived FlushDirty")
				}
			}
		}
		f.m.StopCleaner()
		if err := f.m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInvariantsAfterRestore covers the warm-restart path, including the
// blobs a corrupt checkpoint record could hold: RestoreTable skips a page
// id outside the directory, a frame named twice and a frame outside its
// page's shard, and leaves each shard's other free frames in their dealt
// order.
func TestInvariantsAfterRestore(t *testing.T) {
	f := newFixture(DW, 16, func(c *Config) { c.Partitions = 4 })
	f.run(t, func(p *sim.Proc) {
		for i := 0; i < 12; i++ {
			f.m.OnEvict(p, mkPage(page.ID(i), 1, 1), false, true)
		}
	})
	blob := f.m.SnapshotTable()
	used := map[int]bool{}
	for off := 0; off < len(blob); off += TableEntrySize {
		used[int(binary.LittleEndian.Uint32(blob[off:]))] = true
	}
	spare := 0 // a frame the snapshot leaves free
	for used[spare] {
		spare++
	}
	pageIn := func(shard int) page.ID { // a page the snapshot does not hold
		pid := page.ID(100)
		for f.m.shardOf(pid).num != shard {
			pid++
		}
		return pid
	}
	entry := func(frame int, pid page.ID) []byte {
		var b [TableEntrySize]byte
		binary.LittleEndian.PutUint32(b[0:4], uint32(frame))
		binary.LittleEndian.PutUint64(b[4:12], uint64(pid))
		return b[:]
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	firstFrame := int(binary.LittleEndian.Uint32(blob))
	for _, tc := range []struct {
		name     string
		blob     []byte
		restored map[int]bool // frames the blob must restore
	}{
		{"snapshot", blob, used},
		{"page id out of range", cat(entry(spare, testPages), blob), used},
		{"negative page id", cat(entry(spare, -1), blob), used},
		{"duplicate frame", cat(blob, entry(firstFrame, pageIn(firstFrame%4))), used},
		{"frame outside its page's shard", cat(entry(spare, pageIn((spare+1)%4)), blob), used},
		{"free frames keep their order", cat(entry(0, pageIn(0)), entry(5, pageIn(1))), map[int]bool{0: true, 5: true}},
	} {
		m2 := NewManager(f.env, f.dev, f.disk, nil, testPages, f.m.cfg)
		if err := m2.RestoreTable(tc.blob); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := m2.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for idx := range m2.frames {
			if got := m2.frames[idx].has(fOccupied); got != tc.restored[idx] {
				t.Errorf("%s: frame %d occupied = %v, want %v", tc.name, idx, got, tc.restored[idx])
			}
		}
		for si := range m2.shards {
			var want []int32 // frames are dealt round-robin: si, si+4, si+8, ...
			for idx := si; idx < len(m2.frames); idx += len(m2.shards) {
				if !tc.restored[idx] {
					want = append(want, int32(idx))
				}
			}
			if got := m2.shards[si].free; !slices.Equal(got, want) {
				t.Errorf("%s: shard %d free list %v, want %v", tc.name, si, got, want)
			}
		}
	}
}

func TestInvariantsCatchCorruption(t *testing.T) {
	f := newFixture(DW, 8, nil)
	f.run(t, func(p *sim.Proc) {
		f.m.OnEvict(p, mkPage(1, 1, 1), false, true)
	})
	// Corrupt: flip the occupied counter.
	f.m.occupied++
	if err := f.m.CheckInvariants(); err == nil {
		t.Error("corrupted occupied counter not detected")
	}
	f.m.occupied--
	// Corrupt: orphan the hash entry.
	v := f.m.dir[1]
	f.m.dir[1] = 0
	if err := f.m.CheckInvariants(); err == nil {
		t.Error("orphaned frame not detected")
	}
	f.m.dir[1] = v
	if err := f.m.CheckInvariants(); err != nil {
		t.Errorf("restored state flagged: %v", err)
	}
}

// TestInvariantsCatchHeapCorruption: a frame heap member whose history
// changed without a re-order, and a record naming a slot of neither heap,
// both fail CheckInvariants.
func TestInvariantsCatchHeapCorruption(t *testing.T) {
	f := newFixture(LC, 16, nil)
	f.run(t, func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			f.m.OnEvict(p, mkPage(page.ID(i), 1, 1), i%2 == 0, true)
			p.Sleep(time.Millisecond)
		}
	})
	s := &f.m.shards[0]
	clean := &s.clean
	if len(clean.at) < 2 || len(s.dirty.at) < 2 {
		t.Fatalf("clean heap %d frames, dirty heap %d, want >= 2 each", len(clean.at), len(s.dirty.at))
	}
	for _, h := range []*frameHeap{clean, &s.dirty} {
		rec := &f.m.frames[h.at[len(h.at)-1]] // a leaf: it has a parent
		saved := rec.prev
		rec.prev = saved - time.Hour
		if err := f.m.CheckInvariants(); err == nil {
			t.Error("history moved without a re-order: not detected")
		}
		rec.prev = saved
	}
	free := int(s.free[len(s.free)-1])
	f.m.frames[free].pos = 1
	if err := f.m.CheckInvariants(); err == nil {
		t.Error("free frame naming a heap slot: not detected")
	}
	f.m.frames[free].pos = 0
	if err := f.m.CheckInvariants(); err != nil {
		t.Errorf("restored state flagged: %v", err)
	}
}
