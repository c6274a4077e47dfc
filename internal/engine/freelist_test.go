package engine

import (
	"testing"

	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
)

// driveEngine runs fn to completion inside a simulation process.
func driveEngine(t *testing.T, env *sim.Env, fn func(p *sim.Proc) error) {
	t.Helper()
	done := false
	var err error
	env.Go("driver", func(p *sim.Proc) {
		err = fn(p)
		done = true
	})
	env.Run(-1)
	if !done {
		t.Fatal("driver did not finish")
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestPageBufFreeList checks the page-buffer free list: returned buffers
// are resold (identity-preserving), undersized buffers are dropped, and
// vectors round-trip with their contents.
func TestPageBufFreeList(t *testing.T) {
	env := sim.NewEnv()
	defer env.Shutdown()
	e := New(env, Config{Config: ssd.Config{Design: ssd.NoSSD, PayloadSize: 32}, DBPages: 16, PoolPages: 4})

	b1 := e.getPageBuf()
	if len(b1) != e.bufSize() {
		t.Fatalf("getPageBuf returned %d bytes, want %d", len(b1), e.bufSize())
	}
	e.putPageBuf(b1)
	b2 := e.getPageBuf()
	if &b1[0] != &b2[0] {
		t.Error("free list did not reuse the returned buffer")
	}

	// Undersized buffers must never enter the free list.
	e.putPageBuf(make([]byte, e.bufSize()-1))
	b3 := e.getPageBuf()
	if len(b3) != e.bufSize() {
		t.Errorf("free list resold an undersized buffer (%d bytes)", len(b3))
	}

	v := e.getVec(3)
	if len(v) != 3 {
		t.Fatalf("getVec(3) returned %d buffers", len(v))
	}
	for _, b := range v {
		if len(b) != e.bufSize() {
			t.Fatalf("vec buffer is %d bytes, want %d", len(b), e.bufSize())
		}
	}
	first := &v[0][0]
	e.putVec(v)
	v2 := e.getVec(3)
	found := false
	for _, b := range v2 {
		if &b[0] == first {
			found = true
		}
	}
	if !found {
		t.Error("putVec did not recycle the vector's buffers")
	}
}

// TestRecycledBuffersDoNotAlias is the aliasing guard for the zero-alloc
// read/write path: pages stamped with distinct content survive dirty
// eviction, disk write-back and re-fetch through recycled I/O buffers
// with their ID, LSN and payload intact.
func TestRecycledBuffersDoNotAlias(t *testing.T) {
	env := sim.NewEnv()
	defer env.Shutdown()
	cfg := Config{
		Config:        ssd.Config{Design: ssd.NoSSD, PayloadSize: 32},
		DBPages:       64,
		PoolPages:     8,
		ReadExpansion: -1,
	}
	e := New(env, cfg)
	if err := e.FormatDB(); err != nil {
		t.Fatal(err)
	}
	const stamped = 16
	driveEngine(t, env, func(p *sim.Proc) error {
		for i := 0; i < stamped; i++ {
			tx := e.Begin()
			v := byte(i + 1)
			if err := e.Update(p, tx, page.ID(i), func(pl []byte) { pl[0] = v }); err != nil {
				return err
			}
			if err := e.Commit(p, tx); err != nil {
				return err
			}
		}
		// Cycle the 8-frame pool through the rest of the database several
		// times: every stamped page gets evicted (dirty write-back through
		// a pooled buffer) and its frame re-used for other pages.
		for round := 0; round < 4; round++ {
			for i := stamped; i < int(cfg.DBPages); i++ {
				if _, err := e.Get(p, page.ID(i)); err != nil {
					return err
				}
			}
		}
		for i := 0; i < stamped; i++ {
			f, err := e.Get(p, page.ID(i))
			if err != nil {
				return err
			}
			if f.Pg.ID != page.ID(i) {
				t.Errorf("frame for page %d carries ID %d", i, f.Pg.ID)
			}
			if f.Pg.LSN == 0 {
				t.Errorf("page %d lost its LSN through eviction", i)
			}
			if got := f.Pg.Payload[0]; got != byte(i+1) {
				t.Errorf("page %d payload[0] = %d, want %d — recycled buffer aliased", i, got, i+1)
			}
		}
		return nil
	})
}
