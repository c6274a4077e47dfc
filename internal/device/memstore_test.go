package device

import (
	"bytes"
	"math/bits"
	"strings"
	"testing"
)

func filled(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

func TestStoreRewriteTakesNoNewSlot(t *testing.T) {
	m := &memstore{capacity: 64}
	m.write(9, filled(8, 1))
	m.write(3, filled(8, 2))
	m.write(9, filled(8, 3))
	if m.used != 2 {
		t.Errorf("two pages written (one twice) took %d slots, want 2", m.used)
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
// made at least 16 384.
func TestStoreAllocations(t *testing.T) {
	const pages, stride = 16384, 280
	buf := filled(stride, 1)
	allocs := testing.AllocsPerRun(1, func() {
		m := &memstore{capacity: pages}
		for p := PageNum(0); p < pages; p++ {
			m.write(p, buf)
		}
	})
	t.Logf("%d writes: %.0f allocations", pages, allocs)
	chunks := pages >> chunkShift
	if limit := chunks + 2*bits.Len(pages) + 1; allocs > float64(limit) {
		t.Errorf("%d writes cost %.0f allocations, want <= %d (%d chunks, the doublings, the store)",
			pages, allocs, limit, chunks)
	}
}
