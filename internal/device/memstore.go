package device

import "fmt"

// memstore is the persistent content of a simulated device. A page's bytes
// live in a slot, and slots are handed out in the order pages are first
// written, packed into chunks of 1<<chunkShift slots, so a slot's place is
// a shift and a mask. slot maps a page to its slot + 1 (0 = never written)
// and grows geometrically to the highest page ever written, never past the
// device's capacity. A rewrite overwrites the page's slot, so a device
// costs stride bytes per distinct page written, rounded up to whole
// chunks, plus 4 bytes of index per page below the highest written: no
// allocation and no pointer per page for the garbage collector to scan.
// The first write fixes stride; a write of any other length is a bug and
// panics. A page never written reads back as fill's bytes when fill is
// set, as zeros otherwise.
type memstore struct {
	slot     []uint32
	chunks   [][]byte
	used     uint32 // slots handed out
	stride   int    // bytes per page, fixed by the first write
	capacity PageNum
	fill     func(page PageNum, buf []byte)
}

// chunkShift is log2 of the slots per chunk. 64 keeps a device that sees
// few distinct pages (a member disk of a small experiment's array) small,
// and a chunk of 64 benchmark pages (280 bytes) fills an 18 KiB allocation
// size class to 97 %.
const chunkShift = 6

// bytes returns slot s's page bytes.
func (m *memstore) bytes(s uint32) []byte {
	off := int(s&(1<<chunkShift-1)) * m.stride
	return m.chunks[s>>chunkShift][off : off+m.stride]
}

// read copies the stored payload for page into buf. Short or long buffers
// copy min(len) and zero the rest.
func (m *memstore) read(page PageNum, buf []byte) {
	var s uint32
	if int64(page) < int64(len(m.slot)) {
		s = m.slot[page]
	}
	if s == 0 {
		if m.fill != nil {
			m.fill(page, buf)
		} else {
			clear(buf)
		}
		return
	}
	n := copy(buf, m.bytes(s-1))
	clear(buf[n:])
}

// write stores a copy of buf as the content of page.
func (m *memstore) write(page PageNum, buf []byte) {
	if m.stride == 0 {
		if len(buf) == 0 {
			panic("device: empty page write")
		}
		m.stride = len(buf)
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
	s := m.slot[page]
	if s == 0 {
		if m.used>>chunkShift == uint32(len(m.chunks)) {
			m.chunks = append(m.chunks, make([]byte, m.stride<<chunkShift))
		}
		m.used++
		s = m.used
		m.slot[page] = s
	}
	copy(m.bytes(s-1), buf)
}
