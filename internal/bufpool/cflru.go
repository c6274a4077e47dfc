package bufpool

// cflruList is the pool's victim order under CFLRU, clean-first LRU (Park
// et al.): one recency list over the frame table whose eviction scan walks
// a window at the cold end and takes the first clean frame, deferring
// dirty pages so their write-back is delayed and batched. The list is
// intrusive: links[i] chains frame i, and links[len(frames)] is the root,
// whose next is the MRU end and prev the LRU end. Every resident frame is
// on the list and no other.
//
// The list orders frames by call order alone: touch moves a frame to the
// MRU end whatever the time of the access, so the victim sequence is a
// function of the sequence of calls.
type cflruList struct {
	frames     []Frame     // the pool's frame table
	links      []cflruLink // nil under LRU-2
	window     int         // cold-end scan depth: a quarter of the frames
	cleanFirst int64       // victims chosen over at least one older dirty frame
}

// cflruLink is one frame's place on the list.
type cflruLink struct{ prev, next int32 }

// root returns the index of the list's sentinel link.
func (l *cflruList) root() int32 { return int32(len(l.frames)) }

// reset empties the list.
func (l *cflruList) reset() {
	r := l.root()
	l.links[r] = cflruLink{r, r}
}

// push inserts frame i at the MRU end.
func (l *cflruList) push(i int32) {
	r := l.root()
	next := l.links[r].next
	l.links[i] = cflruLink{prev: r, next: next}
	l.links[next].prev = i
	l.links[r].next = i
}

// unlink removes frame i from the list.
func (l *cflruList) unlink(i int32) {
	lk := l.links[i]
	l.links[lk.prev].next = lk.next
	l.links[lk.next].prev = lk.prev
}

// touch moves frame i to the MRU end.
func (l *cflruList) touch(i int32) {
	l.unlink(i)
	l.push(i)
}

// pop removes and returns the first clean frame among the window frames
// at the LRU end, or the LRU frame if they are all dirty, or -1 if the
// list is empty. It counts a victim taken over an older dirty frame.
func (l *cflruList) pop() int32 {
	r := l.root()
	tail := l.links[r].prev
	if tail == r {
		return -1
	}
	v := tail
	for i, cur := 0, tail; i < l.window && cur != r; i, cur = i+1, l.links[cur].prev {
		if !l.frames[cur].Dirty {
			v = cur
			break
		}
	}
	if v != tail {
		l.cleanFirst++
	}
	l.unlink(v)
	return v
}
