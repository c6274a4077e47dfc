package device

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"turbobp/internal/page"
	"turbobp/internal/sim"
)

func onePage(b byte) [][]byte {
	buf := make([]byte, 16)
	for i := range buf {
		buf[i] = b
	}
	return [][]byte{buf}
}

func TestProfileFromIOPS(t *testing.T) {
	p := ProfileFromIOPS(1000, 10000, 500, 5000)
	if p.RandRead != time.Millisecond {
		t.Errorf("RandRead = %v, want 1ms", p.RandRead)
	}
	if p.SeqRead != 100*time.Microsecond {
		t.Errorf("SeqRead = %v, want 100µs", p.SeqRead)
	}
	if p.RandWrite != 2*time.Millisecond {
		t.Errorf("RandWrite = %v, want 2ms", p.RandWrite)
	}
	if p.SeqWrite != 200*time.Microsecond {
		t.Errorf("SeqWrite = %v, want 200µs", p.SeqWrite)
	}
}

func TestHDDReadWriteRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	d := NewHDD(env, PaperHDDProfile(), 100)
	env.Go("t", func(p *sim.Proc) {
		if err := d.Write(p, 7, onePage(0xAB)); err != nil {
			t.Errorf("write: %v", err)
		}
		got := onePage(0)
		if err := d.Read(p, 7, got); err != nil {
			t.Errorf("read: %v", err)
		}
		if !bytes.Equal(got[0], onePage(0xAB)[0]) {
			t.Errorf("read back %x, want all 0xAB", got[0])
		}
	})
	env.Run(-1)
}

func TestUnwrittenPageReadsZero(t *testing.T) {
	env := sim.NewEnv()
	d := NewHDD(env, PaperHDDProfile(), 100)
	env.Go("t", func(p *sim.Proc) {
		got := onePage(0xFF)
		if err := d.Read(p, 3, got); err != nil {
			t.Errorf("read: %v", err)
		}
		if !bytes.Equal(got[0], make([]byte, 16)) {
			t.Errorf("unwritten page read %x, want zeros", got[0])
		}
	})
	env.Run(-1)
}

// TestStoreGrowsNotPastCapacity writes a 16 384-frame SSD top-down in
// 16-page groups, the order the SSD manager hands frames out. The slot array
// must stay within the device's capacity (doubling from 16 369 slots would
// reach 32 738), and every page must read back as written.
func TestStoreGrowsNotPastCapacity(t *testing.T) {
	const frames, group = 16384, 16
	env := sim.NewEnv()
	defer env.Shutdown()
	d := NewSSD(env, PaperSSDProfile(), frames)
	content := func(pg PageNum) []byte {
		return []byte{byte(pg), byte(pg >> 8), 0x5A, byte(pg >> 4)}
	}
	env.Go("t", func(p *sim.Proc) {
		for start := PageNum(frames - group); start >= 0; start -= group {
			bufs := make([][]byte, group)
			for i := range bufs {
				bufs[i] = content(start + PageNum(i))
			}
			if err := d.Write(p, start, bufs); err != nil {
				t.Fatalf("write %d: %v", start, err)
			}
		}
		got := [][]byte{make([]byte, 4)}
		for pg := PageNum(0); pg < frames; pg++ {
			if err := d.Read(p, pg, got); err != nil {
				t.Fatalf("read %d: %v", pg, err)
			}
			if !bytes.Equal(got[0], content(pg)) {
				t.Fatalf("page %d read back %x, want %x", pg, got[0], content(pg))
			}
		}
	})
	env.Run(-1)
	if n := len(d.store.pages); n > frames {
		t.Errorf("slot array holds %d slots for a %d-page device", n, frames)
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	env := sim.NewEnv()
	d := NewHDD(env, PaperHDDProfile(), 10)
	env.Go("t", func(p *sim.Proc) {
		if err := d.Read(p, 10, onePage(0)); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("read past end: err = %v, want ErrOutOfRange", err)
		}
		if err := d.Write(p, -1, onePage(0)); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("negative page: err = %v, want ErrOutOfRange", err)
		}
		bufs := [][]byte{make([]byte, 16), make([]byte, 16)}
		if err := d.Read(p, 9, bufs); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("run past end: err = %v, want ErrOutOfRange", err)
		}
	})
	env.Run(-1)
}

func TestRandomVsSequentialCost(t *testing.T) {
	prof := Profile{
		RandRead: 10 * time.Millisecond, SeqRead: time.Millisecond,
		RandWrite: 20 * time.Millisecond, SeqWrite: 2 * time.Millisecond,
	}
	env := sim.NewEnv()
	d := NewHDD(env, prof, 1000)
	var t1, t2, t3 time.Duration
	env.Go("t", func(p *sim.Proc) {
		d.Read(p, 0, onePage(0)) // random: head at -1
		t1 = p.Now()
		d.Read(p, 1, onePage(0)) // sequential
		t2 = p.Now()
		d.Read(p, 500, onePage(0)) // random again
		t3 = p.Now()
	})
	env.Run(-1)
	if t1 != 10*time.Millisecond {
		t.Errorf("first random read took %v, want 10ms", t1)
	}
	if t2-t1 != time.Millisecond {
		t.Errorf("sequential read took %v, want 1ms", t2-t1)
	}
	if t3-t2 != 10*time.Millisecond {
		t.Errorf("random read took %v, want 10ms", t3-t2)
	}
}

func TestMultiPageRequestCost(t *testing.T) {
	prof := Profile{RandRead: 10 * time.Millisecond, SeqRead: time.Millisecond,
		RandWrite: 10 * time.Millisecond, SeqWrite: time.Millisecond}
	env := sim.NewEnv()
	d := NewHDD(env, prof, 1000)
	var took time.Duration
	env.Go("t", func(p *sim.Proc) {
		bufs := make([][]byte, 6)
		for i := range bufs {
			bufs[i] = make([]byte, 16)
		}
		d.Read(p, 100, bufs)
		took = p.Now()
	})
	env.Run(-1)
	want := 10*time.Millisecond + 5*time.Millisecond // seek + 5 streamed pages
	if took != want {
		t.Errorf("6-page read took %v, want %v", took, want)
	}
}

func TestStatsCounting(t *testing.T) {
	env := sim.NewEnv()
	d := NewHDD(env, PaperHDDProfile(), 1000)
	env.Go("t", func(p *sim.Proc) {
		bufs := [][]byte{make([]byte, 16), make([]byte, 16)}
		d.Write(p, 0, bufs)
		d.Read(p, 0, onePage(0))
		d.Read(p, 1, onePage(0)) // sequential after reading page 0
	})
	env.Run(-1)
	s := d.Stats().Load()
	if s.WriteOps != 1 || s.WritePages != 2 {
		t.Errorf("writes = %d ops/%d pages, want 1/2", s.WriteOps, s.WritePages)
	}
	if s.ReadOps != 2 || s.ReadPages != 2 {
		t.Errorf("reads = %d ops/%d pages, want 2/2", s.ReadOps, s.ReadPages)
	}
	if s.SeqReads != 1 {
		t.Errorf("SeqReads = %d, want 1", s.SeqReads)
	}
	if s.BusyNanos <= 0 {
		t.Error("BusyNanos not charged")
	}
}

func TestSnapshotSub(t *testing.T) {
	a := Snapshot{ReadOps: 10, WriteOps: 4, ReadPages: 20, WritePages: 8}
	b := Snapshot{ReadOps: 25, WriteOps: 9, ReadPages: 50, WritePages: 16}
	d := b.Sub(a)
	if d.ReadOps != 15 || d.WriteOps != 5 || d.ReadPages != 30 || d.WritePages != 8 {
		t.Errorf("Sub = %+v", d)
	}
}

// measureIOPS drives a device with nWorkers eager workers for the window and
// returns achieved ops/sec.
func measureIOPS(t *testing.T, dev Device, capacity PageNum, write, random bool, nWorkers int, window time.Duration) float64 {
	t.Helper()
	env := sim.NewEnv()
	switch d := dev.(type) {
	case *HDD:
		d.res = sim.NewResource(env, 1)
	case *SSD:
		d.res = sim.NewResource(env, 1)
	}
	ops := 0
	buf := onePage(0)
	for w := 0; w < nWorkers; w++ {
		w := w
		env.Go("worker", func(p *sim.Proc) {
			rng := uint64(12345 + w)
			next := PageNum(w * 1000 % int(capacity))
			for {
				var page PageNum
				if random {
					rng = rng*6364136223846793005 + 1442695040888963407
					page = PageNum(rng>>33) % capacity
				} else {
					page = next
					next = (next + 1) % capacity
				}
				var err error
				if write {
					err = dev.Write(p, page, buf)
				} else {
					err = dev.Read(p, page, buf)
				}
				if err != nil {
					t.Errorf("io: %v", err)
					return
				}
				if p.Now() > window {
					return
				}
				ops++
			}
		})
	}
	env.Run(-1)
	return float64(ops) / window.Seconds()
}

func within(t *testing.T, name string, got, want, tolFrac float64) {
	t.Helper()
	if math.Abs(got-want)/want > tolFrac {
		t.Errorf("%s = %.0f, want %.0f ±%.0f%%", name, got, want, tolFrac*100)
	}
}

// TestTable1SSDCalibration checks the SSD model reproduces Table 1.
func TestTable1SSDCalibration(t *testing.T) {
	mk := func() Device { return NewSSD(sim.NewEnv(), PaperSSDProfile(), 1<<20) }
	within(t, "ssd rand read", measureIOPS(t, mk(), 1<<20, false, true, 4, time.Second), SSDRandReadIOPS, 0.05)
	within(t, "ssd seq read", measureIOPS(t, mk(), 1<<20, false, false, 1, time.Second), SSDSeqReadIOPS, 0.05)
	within(t, "ssd rand write", measureIOPS(t, mk(), 1<<20, true, true, 4, time.Second), SSDRandWriteIOPS, 0.05)
	within(t, "ssd seq write", measureIOPS(t, mk(), 1<<20, true, false, 1, time.Second), SSDSeqWriteIOPS, 0.05)
}

// TestTable1ArrayCalibration checks the 8-disk array reproduces Table 1.
// Sequential workloads use one stream per stripe so each disk streams.
func TestTable1ArrayCalibration(t *testing.T) {
	measure := func(write, random bool) float64 {
		env := sim.NewEnv()
		const capacity = 1 << 20
		arr := NewArray(env, PaperHDDProfile(), PaperArrayDisks, 64, capacity)
		ops := 0
		window := time.Second
		buf := onePage(0)
		workers := PaperArrayDisks * 16
		if !random {
			workers = PaperArrayDisks
		}
		for w := 0; w < workers; w++ {
			w := w
			env.Go("worker", func(p *sim.Proc) {
				rng := uint64(999 + w)
				// Sequential workers each walk their own disk's stripes.
				disk := w % PaperArrayDisks
				unit := PageNum(64)
				pos := PageNum(disk) * unit
				for {
					var page PageNum
					if random {
						rng = rng*6364136223846793005 + 1442695040888963407
						page = PageNum(rng>>33) % capacity
					} else {
						page = pos
						pos++
						if pos%unit == 0 { // jump to this disk's next stripe
							pos += unit * (PaperArrayDisks - 1)
							if pos >= capacity {
								pos = PageNum(disk) * unit
							}
						}
					}
					var err error
					if write {
						err = arr.Write(p, page, buf)
					} else {
						err = arr.Read(p, page, buf)
					}
					if err != nil {
						t.Errorf("io: %v", err)
						return
					}
					if p.Now() > window {
						return
					}
					ops++
				}
			})
		}
		env.Run(-1)
		return float64(ops) / window.Seconds()
	}
	within(t, "array rand read", measure(false, true), HDDArrayRandReadIOPS, 0.05)
	within(t, "array seq read", measure(false, false), HDDArraySeqReadIOPS, 0.05)
	within(t, "array rand write", measure(true, true), HDDArrayRandWriteIOPS, 0.05)
	within(t, "array seq write", measure(true, false), HDDArraySeqWriteIOPS, 0.05)
}

func TestArrayLocate(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, PaperHDDProfile(), 4, 8, 1024)
	cases := []struct {
		page  PageNum
		disk  int
		local PageNum
	}{
		{0, 0, 0}, {7, 0, 7}, {8, 1, 0}, {15, 1, 7},
		{24, 3, 0}, {32, 0, 8}, {33, 0, 9}, {40, 1, 8},
	}
	for _, c := range cases {
		disk, local := a.locate(c.page)
		if disk != c.disk || local != c.local {
			t.Errorf("locate(%d) = (%d,%d), want (%d,%d)", c.page, disk, local, c.disk, c.local)
		}
	}
}

func TestArraySplitPreservesAllPages(t *testing.T) {
	prop := func(startRaw uint16, nRaw uint8) bool {
		env := sim.NewEnv()
		a := NewArray(env, PaperHDDProfile(), 4, 8, 1<<20)
		start := PageNum(startRaw)
		n := int(nRaw%100) + 1
		bufs := make([][]byte, n)
		for i := range bufs {
			bufs[i] = []byte{byte(i)}
		}
		runs := a.split(start, bufs)
		total := 0
		page := start
		for _, r := range runs {
			wantDisk, wantLocal := a.locate(page)
			if r.disk != wantDisk || r.local != wantLocal {
				return false
			}
			for _, b := range r.bufs {
				if b[0] != byte(total) {
					return false
				}
				total++
				page++
			}
		}
		return total == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestArrayRoundTripAcrossDisks(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, PaperHDDProfile(), 4, 4, 1024)
	env.Go("t", func(p *sim.Proc) {
		const n = 20 // spans 5 stripe units / 4 disks
		w := make([][]byte, n)
		for i := range w {
			w[i] = []byte{byte(i + 1), byte(i + 2)}
		}
		if err := a.Write(p, 2, w); err != nil {
			t.Errorf("write: %v", err)
		}
		r := make([][]byte, n)
		for i := range r {
			r[i] = make([]byte, 2)
		}
		if err := a.Read(p, 2, r); err != nil {
			t.Errorf("read: %v", err)
		}
		for i := range r {
			if !bytes.Equal(r[i], w[i]) {
				t.Errorf("page %d: got %v want %v", i, r[i], w[i])
			}
		}
	})
	env.Run(-1)
}

func TestArrayParallelismBeatsSingleDisk(t *testing.T) {
	// A 32-page read striped over 4 disks should take roughly 1/4 the time
	// of the same read on one disk (plus one seek).
	prof := Profile{RandRead: 10 * time.Millisecond, SeqRead: time.Millisecond,
		RandWrite: 10 * time.Millisecond, SeqWrite: time.Millisecond}
	timeFor := func(disks int) time.Duration {
		env := sim.NewEnv()
		a := NewArray(env, prof, disks, 8, 1024)
		var took time.Duration
		env.Go("t", func(p *sim.Proc) {
			bufs := make([][]byte, 32)
			for i := range bufs {
				bufs[i] = make([]byte, 4)
			}
			a.Read(p, 0, bufs)
			took = p.Now()
		})
		env.Run(-1)
		return took
	}
	one, four := timeFor(1), timeFor(4)
	if four >= one {
		t.Errorf("4-disk read (%v) not faster than 1-disk (%v)", four, one)
	}
	if four > one/2 {
		t.Errorf("4-disk read (%v) should be well under half of 1-disk (%v)", four, one)
	}
}

// TestArrayFormat: a formatted array serves every never-written page as the
// fill's bytes for its global page — through single-page reads and a
// multi-stripe run alike, so the per-disk local-to-global inverse of locate
// is right — while written pages read back the write. The fill is the one
// Engine.FormatDB installs; formatting counts no I/O.
func TestArrayFormat(t *testing.T) {
	const payload = 32
	zeros := make([]byte, payload)
	encode := func(pid PageNum, buf []byte) {
		if err := page.Encode(&page.Page{ID: page.ID(pid), Payload: zeros}, buf); err != nil {
			t.Fatal(err)
		}
	}
	want := func(pid PageNum) []byte {
		buf := make([]byte, page.HeaderSize+payload)
		encode(pid, buf)
		return buf
	}
	newBufs := func(n int) [][]byte {
		bufs := make([][]byte, n)
		for i := range bufs {
			bufs[i] = make([]byte, page.HeaderSize+payload)
		}
		return bufs
	}

	env := sim.NewEnv()
	const capacity = 2*8*64 + 77 // not a multiple of disks × unit
	a := NewArray(env, PaperHDDProfile(), 8, 64, capacity)
	if err := a.Format(encode); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().Load(); got != (Snapshot{}) {
		t.Errorf("Format counted I/O: %+v", got)
	}
	if got := a.BusySnapshot(); got != (Snapshot{}) {
		t.Errorf("Format counted member-disk I/O: %+v", got)
	}
	written := want(0)
	written[page.HeaderSize] = 0xAB
	env.Go("t", func(p *sim.Proc) {
		for pid := PageNum(0); pid < capacity; pid++ {
			bufs := newBufs(1)
			if err := a.Read(p, pid, bufs); err != nil {
				t.Fatalf("read %d: %v", pid, err)
			}
			if !bytes.Equal(bufs[0], want(pid)) {
				t.Fatalf("page %d does not match its eager encoding", pid)
			}
		}
		const start, n = 40, 200 // spans units 0..3 on disks 0..3
		bufs := newBufs(n)
		if err := a.Read(p, start, bufs); err != nil {
			t.Fatalf("run read: %v", err)
		}
		for i, b := range bufs {
			if !bytes.Equal(b, want(PageNum(start+i))) {
				t.Fatalf("run page %d does not match its eager encoding", start+i)
			}
		}
		if err := a.Write(p, 1000, [][]byte{written}); err != nil {
			t.Fatal(err)
		}
		bufs = newBufs(1)
		if err := a.Read(p, 1000, bufs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bufs[0], written) {
			t.Error("written page read back the fill, not the write")
		}
	})
	env.Run(-1)

	// A DiscardContent device stores nothing, so it has nothing to format.
	d := NewHDD(env, PaperHDDProfile(), 100)
	d.DiscardContent()
	if err := d.Format(encode); err != nil {
		t.Fatal(err)
	}
	env.Go("t", func(p *sim.Proc) {
		bufs := newBufs(1)
		if err := d.Read(p, 7, bufs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bufs[0], make([]byte, len(bufs[0]))) {
			t.Errorf("DiscardContent device read %x, want zeros", bufs[0])
		}
	})
	env.Run(-1)
}

func TestFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.db")
	d, err := OpenFile(path, 32, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	page := make([]byte, 32)
	for i := range page {
		page[i] = 0x5A
	}
	if err := d.Write(nil, 42, [][]byte{page}); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := [][]byte{make([]byte, 32)}
	if err := d.Read(nil, 42, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got[0], page) {
		t.Error("file round trip mismatch")
	}
	if err := d.Read(nil, 100, got); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out of range err = %v", err)
	}
	if err := d.Write(nil, 0, [][]byte{make([]byte, 31)}); err == nil {
		t.Error("short buffer accepted")
	}
	s := d.Stats().Load()
	if s.ReadOps != 1 || s.WriteOps != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFileDevicePreloadAndSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.db")
	d, err := OpenFile(path, 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	data := bytes.Repeat([]byte{7}, 16)
	if err := d.Preload(3, data); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	got := [][]byte{make([]byte, 16)}
	if err := d.Read(nil, 3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], data) {
		t.Error("preload round trip mismatch")
	}
}

// Property: device contents behave like a map — the latest write to a page
// is what a read returns, regardless of interleaving.
func TestDeviceLinearContentProperty(t *testing.T) {
	prop := func(opsRaw []uint16) bool {
		env := sim.NewEnv()
		d := NewSSD(env, PaperSSDProfile(), 64)
		shadow := map[PageNum]byte{}
		ok := true
		env.Go("t", func(p *sim.Proc) {
			for i, raw := range opsRaw {
				page := PageNum(raw % 64)
				if raw%3 == 0 { // read
					buf := [][]byte{make([]byte, 1)}
					d.Read(p, page, buf)
					want := shadow[page]
					if buf[0][0] != want {
						ok = false
						return
					}
				} else { // write
					v := byte(i + 1)
					d.Write(p, page, [][]byte{{v}})
					shadow[page] = v
				}
			}
		})
		env.Run(-1)
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
