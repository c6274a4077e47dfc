package page

// Buffers is a free list of encoded-page buffers of one size, and of the
// [][]byte vectors that carry them through device transfers: the engine and
// the SSD manager each own one. A buffer is taken and returned, never
// shared in place, because its holder waits in virtual time mid-I/O. Used
// under the simulation kernel's serialization, with no locking.
type Buffers struct {
	size int
	bufs [][]byte
	vecs [][][]byte
}

// NewBuffers returns an empty pool of size-byte buffers.
func NewBuffers(size int) *Buffers { return &Buffers{size: size} }

// Size is the length of every buffer the pool hands out.
func (b *Buffers) Size() int { return b.size }

// Get takes a buffer from the free list, allocating only when it is empty.
// Its contents are whatever the last holder left.
func (b *Buffers) Get() []byte {
	if buf, ok := pop(&b.bufs); ok {
		return buf
	}
	return make([]byte, b.size)
}

// Put returns buf for reuse; an undersized buffer is dropped. The caller
// must be done with every alias of buf: the next Get may overwrite it.
func (b *Buffers) Put(buf []byte) {
	if cap(buf) < b.size {
		return
	}
	b.bufs = append(b.bufs, buf[:b.size])
}

// Vec returns a vector of n buffers from the pool.
func (b *Buffers) Vec(n int) [][]byte {
	v, _ := pop(&b.vecs)
	if cap(v) < n {
		v = make([][]byte, 0, n)
	}
	for range n {
		v = append(v, b.Get())
	}
	return v
}

// PutVec returns a vector from Vec and every buffer in it.
func (b *Buffers) PutVec(v [][]byte) {
	for i, buf := range v {
		b.Put(buf)
		v[i] = nil
	}
	b.vecs = append(b.vecs, v[:0])
}

// pop removes and returns the last element of *s, clearing its slot.
func pop[S any](s *[]S) (S, bool) {
	var zero S
	n := len(*s)
	if n == 0 {
		return zero, false
	}
	x := (*s)[n-1]
	(*s)[n-1] = zero
	*s = (*s)[:n-1]
	return x, true
}
