package device

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// memstore is the persistent content of a simulated device. A written page
// keeps only its bytes up to its last non-zero byte, in a slot of one size
// class: powers of two from 16 bytes up to the stride (or 128 KiB), the
// last class the stride itself; an all-zero page takes a slot of the
// 16-byte class. Each class is an arena of chunks of 1<<chunkShift slots,
// so a slot's place is a shift and a mask, with its own free list of slots
// to reuse. slot maps a page to its class and slot (0 = never written) and
// grows geometrically to the highest page ever written, never past the
// device's capacity. A rewrite that keeps its class overwrites its slot;
// one that changes class frees the old slot and takes one in the new class.
// A write fills its slot to the class's full width, so a reused slot keeps
// no byte of the page that held it before. A class never gives its chunks
// back, so a device costs, per class, its peak count of pages at once in
// that class times the class's width, rounded up to whole chunks, plus 4
// bytes of index per page below the highest written: no allocation and no
// pointer per page for the garbage collector to scan. Pages that stay in
// their class cost their class's width; pages that pass through every class
// cost at worst the sum of the widths (16+32+…+256+280 = 776 bytes for a
// 280-byte page, where storing the whole stride costs 280). The first write
// fixes stride; a write of any other length is a bug and panics. A read
// returns the stored bytes, then zeros; a page never written reads back as
// fill's bytes when fill is set, as zeros otherwise.
type memstore struct {
	slot     []uint32
	classes  [maxClasses]sizeClass // widths 16, 32, … up to stride; set by the first write
	nclasses int                   // classes in use
	stride   int                   // bytes per page, fixed by the first write
	capacity PageNum
	fill     func(page PageNum, buf []byte)
}

// sizeClass is the arena of one slot width.
type sizeClass struct {
	width  uint32
	used   uint32 // slots handed out, freed ones included
	chunks [][]byte
	free   []uint32 // freed slots, reused last-freed first
}

// chunkShift is log2 of the slots per chunk. 64 keeps a device that sees
// few distinct pages (a member disk of a small experiment's array) small;
// a chunk of a power-of-two class fills its allocation size class, and a
// chunk of 64 benchmark pages (280 bytes) fills an 18 KiB one to 97 %.
const chunkShift = 6

// An index entry is 0 for a page never written, else its class + 1 in the
// top classBits bits and its slot in the others. Four bits hold the
// maxClasses classes: 16 B to 128 KiB, then the stride, which also takes
// a longer page's bytes past 128 KiB.
const (
	classBits  = 4
	slotBits   = 32 - classBits
	slotMask   = 1<<slotBits - 1
	maxClasses = 1<<classBits - 1
)

// entry returns the index entry of slot s of class c.
func entry(c int, s uint32) uint32 { return uint32(c+1)<<slotBits | s }

// bytes returns slot s's bytes.
func (c *sizeClass) bytes(s uint32) []byte {
	w := int(c.width)
	off := int(s&(1<<chunkShift-1)) * w
	return c.chunks[s>>chunkShift][off : off+w]
}

// alloc hands out a slot: the last one freed, else a new one.
func (c *sizeClass) alloc() uint32 {
	if n := len(c.free); n > 0 {
		s := c.free[n-1]
		c.free = c.free[:n-1]
		return s
	}
	if c.used > slotMask {
		panic(fmt.Sprintf("device: page store holds more than %d pages of %d bytes", slotMask+1, c.width))
	}
	if c.used>>chunkShift == uint32(len(c.chunks)) {
		c.chunks = append(c.chunks, make([]byte, int(c.width)<<chunkShift))
	}
	c.used++
	return c.used - 1
}

// release returns slot s to the free list.
func (c *sizeClass) release(s uint32) { c.free = append(c.free, s) }

// setStride fixes the page length and sets up the size classes.
func (m *memstore) setStride(stride int) {
	m.stride = stride
	for w := 16; w < stride && m.nclasses < maxClasses-1; w *= 2 {
		m.classes[m.nclasses].width = uint32(w)
		m.nclasses++
	}
	m.classes[m.nclasses].width = uint32(stride)
	m.nclasses++
}

// classOf returns the class of a page whose last non-zero byte is its nth:
// the narrowest class at least n bytes wide, the 16-byte one for n = 0.
func (m *memstore) classOf(n int) int {
	return min(max(bits.Len(uint(max(n, 1)-1))-4, 0), m.nclasses-1)
}

// trimmedLen returns the length of buf without its trailing zero bytes.
func trimmedLen(buf []byte) int {
	n := len(buf)
	for n >= 8 && binary.LittleEndian.Uint64(buf[n-8:n]) == 0 {
		n -= 8
	}
	for n > 0 && buf[n-1] == 0 {
		n--
	}
	return n
}

// read copies the stored payload for page into buf. Short or long buffers
// copy min(len) and zero the rest.
func (m *memstore) read(page PageNum, buf []byte) {
	var e uint32
	if int64(page) < int64(len(m.slot)) {
		e = m.slot[page]
	}
	if e == 0 {
		if m.fill != nil {
			m.fill(page, buf)
		} else {
			clear(buf)
		}
		return
	}
	n := copy(buf, m.classes[e>>slotBits-1].bytes(e&slotMask))
	clear(buf[n:])
}

// write stores a copy of buf as the content of page.
func (m *memstore) write(page PageNum, buf []byte) {
	if m.stride == 0 {
		if len(buf) == 0 {
			panic("device: empty page write")
		}
		m.setStride(len(buf))
	}
	if len(buf) != m.stride {
		panic(fmt.Sprintf("device: %d-byte write of page %d to a store of %d-byte pages", len(buf), page, m.stride))
	}
	if int64(page) >= int64(len(m.slot)) {
		n := int64(len(m.slot)) * 2
		if n <= int64(page) {
			n = int64(page) + 1
		}
		n = min(n, int64(m.capacity))
		grown := make([]uint32, n)
		copy(grown, m.slot)
		m.slot = grown
	}
	ci := m.classOf(trimmedLen(buf))
	c := &m.classes[ci]
	e := m.slot[page]
	if e>>slotBits != uint32(ci+1) {
		if e != 0 {
			m.classes[e>>slotBits-1].release(e & slotMask)
		}
		e = entry(ci, c.alloc())
		m.slot[page] = e
	}
	copy(c.bytes(e&slotMask), buf) // the full width: a reused slot keeps no stale byte
}
