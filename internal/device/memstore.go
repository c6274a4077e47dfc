package device

// memstore is the persistent content of a simulated device: one payload-copy
// slot per page, directly indexed (an index, not a hash probe). The slot
// array grows geometrically to the highest page ever written, never past the
// device's capacity, so a device costs memory only for what was written. A
// page never written reads back as fill's bytes when fill is set, as zeros
// otherwise.
type memstore struct {
	pages    [][]byte
	capacity PageNum // the device's page count: the slot array's ceiling
	fill     func(page PageNum, buf []byte)
}

// read copies the stored payload for page into buf. Short or long buffers
// copy min(len).
func (m *memstore) read(page PageNum, buf []byte) {
	var src []byte
	if int64(page) < int64(len(m.pages)) {
		src = m.pages[page]
	}
	if src == nil && m.fill != nil {
		m.fill(page, buf)
		return
	}
	n := copy(buf, src)
	for i := n; i < len(buf); i++ {
		buf[i] = 0
	}
}

// write stores a copy of buf as the content of page.
func (m *memstore) write(page PageNum, buf []byte) {
	if int64(page) >= int64(len(m.pages)) {
		n := int64(len(m.pages)) * 2
		if n <= int64(page) {
			n = int64(page) + 1
		}
		n = min(n, int64(m.capacity))
		grown := make([][]byte, n)
		copy(grown, m.pages)
		m.pages = grown
	}
	dst := m.pages[page]
	if len(dst) != len(buf) {
		dst = make([]byte, len(buf))
		m.pages[page] = dst
	}
	copy(dst, buf)
}
