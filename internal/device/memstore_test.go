package device

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"turbobp/internal/page"
)

func filled(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

func TestStoreRewriteTakesNoNewSlot(t *testing.T) {
	m := &memstore{capacity: 64}
	m.write(9, filled(8, 1))
	m.write(3, filled(8, 2))
	m.write(9, filled(8, 3))
	if used := m.classes[m.nclasses-1].used; used != 2 {
		t.Errorf("two pages written (one twice) took %d slots, want 2", used)
	}
	got := make([]byte, 8)
	m.read(9, got)
	if !bytes.Equal(got, filled(8, 3)) {
		t.Errorf("rewritten page reads %x, want the second write", got)
	}
	m.read(3, got)
	if !bytes.Equal(got, filled(8, 2)) {
		t.Errorf("page 3 reads %x after page 9's rewrite", got)
	}
}

// TestStoreClassesCapAtStride: a store of 1 MiB pages has the 14 classes
// from 16 B to 128 KiB, then the stride, which takes every longer page.
func TestStoreClassesCapAtStride(t *testing.T) {
	const stride = 1 << 20
	m := &memstore{}
	m.setStride(stride)
	if m.nclasses != maxClasses || m.classes[m.nclasses-1].width != stride {
		t.Fatalf("%d classes, the last %d B wide; want %d, the last the stride", m.nclasses, m.classes[m.nclasses-1].width, maxClasses)
	}
	for _, c := range []struct{ n, class int }{{0, 0}, {16, 0}, {17, 1}, {128 << 10, 13}, {128<<10 + 1, 14}, {stride, 14}} {
		if got := m.classOf(c.n); got != c.class {
			t.Errorf("last non-zero byte %d: class %d, want %d", c.n, got, c.class)
		}
	}
}

func TestStoreNeverWrittenReads(t *testing.T) {
	m := &memstore{capacity: 64}
	m.write(2, filled(8, 7))
	got := filled(8, 0xFF)
	for _, page := range []PageNum{1, 40} { // inside and past the index
		m.read(page, got)
		if !bytes.Equal(got, make([]byte, 8)) {
			t.Errorf("never-written page %d reads %x, want zeros", page, got)
		}
	}
	m.fill = func(page PageNum, buf []byte) {
		for i := range buf {
			buf[i] = byte(page)
		}
	}
	for _, page := range []PageNum{1, 40} {
		m.read(page, got)
		if !bytes.Equal(got, filled(8, byte(page))) {
			t.Errorf("never-written page %d reads %x, want the fill's bytes", page, got)
		}
	}
	m.read(2, got)
	if !bytes.Equal(got, filled(8, 7)) {
		t.Errorf("written page reads %x with a fill set, want what was written", got)
	}
}

func TestStoreShortAndLongBuffers(t *testing.T) {
	m := &memstore{capacity: 8}
	m.write(1, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	short := make([]byte, 3)
	m.read(1, short)
	if !bytes.Equal(short, []byte{1, 2, 3}) {
		t.Errorf("short buffer reads %x, want the page's first 3 bytes", short)
	}
	long := filled(12, 0xFF)
	m.read(1, long)
	if want := []byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0}; !bytes.Equal(long, want) {
		t.Errorf("long buffer reads %x, want %x", long, want)
	}
}

func TestStoreMixedLengthWritePanics(t *testing.T) {
	m := &memstore{capacity: 8}
	m.write(1, filled(8, 1))
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "4-byte write") || !strings.Contains(msg, "8-byte pages") {
			t.Errorf("mixed-length write: recovered %q, want both lengths named", msg)
		}
	}()
	m.write(2, filled(4, 1))
}

// TestStoreAllocations: filling 16 384 pages of 280 bytes (the benchmark's
// SSD tier) allocates once per 64-slot chunk and once per doubling of the
// index and of the chunk table, in ascending page order, where the index
// doubles most. A store that kept each page in an allocation of its own
// made at least 16 384. Filled with formatted pages of zero payload, as
// the SSD tier's frames are after a srv_read_cold warm-up, the store
// allocates 0.39 MB: the 16-byte class's chunks, the index and the chunk
// table. A store that kept the whole stride of each page allocated
// 4.64 MB; the bound is 0.5 MB.
func TestStoreAllocations(t *testing.T) {
	const pages, stride = 16384, 280
	buf := make([]byte, stride)
	fillStore := func(encode func(p PageNum, buf []byte)) *memstore {
		m := &memstore{capacity: pages}
		for p := PageNum(0); p < pages; p++ {
			encode(p, buf)
			m.write(p, buf)
		}
		return m
	}
	ones := filled(stride, 1)
	allocs := testing.AllocsPerRun(1, func() {
		fillStore(func(_ PageNum, buf []byte) { copy(buf, ones) })
	})
	t.Logf("%d writes: %.0f allocations", pages, allocs)
	chunks := pages >> chunkShift
	if limit := chunks + 2*bits.Len(pages) + 1; allocs > float64(limit) {
		t.Errorf("%d writes cost %.0f allocations, want <= %d (%d chunks, the doublings, the store)",
			pages, allocs, limit, chunks)
	}

	payload := make([]byte, stride-page.HeaderSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := fillStore(func(p PageNum, buf []byte) {
		if err := page.Encode(&page.Page{ID: page.ID(p), Payload: payload}, buf); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d zero-payload pages: %.3f MB allocated", pages, float64(got)/(1<<20))
	if got > 512<<10 {
		t.Errorf("%d zero-payload pages allocated %.2f MB, want <= 0.5 MB: are trailing zeros stored again?",
			pages, float64(got)/(1<<20))
	}
}

// storeLens are the lengths of non-zero prefix the model tests write to a
// store of storeStride-byte pages: all zero, each side of the 16-byte
// class's edge, inside the 32-byte class, each side of the last power of
// two, the whole stride.
var storeLens = []int{0, 1, 15, 16, 17, 24, 100, 256, 257, storeStride}

const storeStride, storePages = 280, 40

// storeFill is the fill the model tests install: no byte of it is zero.
func storeFill(page PageNum, buf []byte) {
	for i := range buf {
		buf[i] = byte(page)<<1 | 1
	}
}

// storeCover counts the operations of a runStoreOps run that the three
// properties it checks turn on.
type storeCover struct {
	zeroOverFill int // all-zero writes made while a fill was set
	reused       int // writes into a slot freed by a page that left its class
}

// runStoreOps applies ops to a store and to a map of written pages, three
// bytes an operation: the first picks a length from storeLens (a write
// whose last non-zero byte is there) or toggles the fill, the second a
// page (some past the capacity the index starts with), the third the
// bytes. After each operation every page must read as the model says:
// what was last written, then zeros (an all-zero write reads zeros, not
// the fill; a reused slot shows nothing of the page that held it before);
// the fill's bytes, or zeros without one, where nothing was written.
func runStoreOps(t *testing.T, ops []byte) storeCover {
	t.Helper()
	var cover storeCover
	m := &memstore{capacity: storePages}
	model := map[PageNum][]byte{}
	want, got := make([]byte, storeStride), make([]byte, storeStride)
	for i := 0; i+3 <= len(ops); i += 3 {
		sel, page, seed := int(ops[i]), PageNum(int(ops[i+1])%storePages), ops[i+2]
		op := "fill off"
		switch k := sel % (len(storeLens) + 1); {
		case k == len(storeLens) && m.fill == nil:
			m.fill, op = storeFill, "fill on"
		case k == len(storeLens):
			m.fill = nil
		default:
			n := storeLens[k]
			buf := make([]byte, storeStride)
			for j := range n {
				buf[j] = byte(j*31) + seed // interior zeros happen
			}
			if n > 0 {
				buf[n-1] |= 1
			}
			op = fmt.Sprintf("write of page %d, last non-zero byte %d", page, n)
			if n == 0 && m.fill != nil {
				cover.zeroOverFill++
				op += ", fill set"
			}
			freed := 0
			if m.stride != 0 {
				freed = len(m.classes[m.classOf(n)].free)
			}
			m.write(page, buf)
			if len(m.classes[m.classOf(n)].free) < freed {
				cover.reused++
				op += ", into a reused slot"
			}
			model[page] = buf
		}
		for p := PageNum(0); p < storePages; p++ {
			switch b, ok := model[p]; {
			case ok:
				copy(want, b)
			case m.fill != nil:
				m.fill(p, want)
			default:
				clear(want)
			}
			m.read(p, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("after op %d (%s): page %d reads\n%x\nwant\n%x", i/3, op, p, got, want)
			}
		}
	}
	return cover
}

// TestStoreMatchesModel runs random operations on pages whose writes grow
// and shrink their size class, with the fill set and unset, and compares
// every page with a map of what was written after each one. Each seed's
// run must write zeros over a fill and reuse freed slots, or it checks
// neither.
func TestStoreMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		ops := make([]byte, 3*2000)
		rand.New(rand.NewSource(seed)).Read(ops)
		if c := runStoreOps(t, ops); c.zeroOverFill == 0 || c.reused == 0 {
			t.Errorf("seed %d: %d all-zero writes over a fill, %d writes into reused slots; want both > 0",
				seed, c.zeroOverFill, c.reused)
		}
	}
}

// FuzzStore is TestStoreMatchesModel over operations the fuzzer picks.
func FuzzStore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1, 7, 0, 1, 0, 2, 2, 9, 10, 3, 3, 4, 3, 4, 9, 1, 1})
	f.Add([]byte{6, 39, 1, 1, 39, 2, 10, 0, 0, 0, 39, 0, 8, 2, 3})
	f.Fuzz(func(t *testing.T, ops []byte) { runStoreOps(t, ops) })
}
