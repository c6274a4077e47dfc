package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span names. Root spans (an operation as the client sees it) come first;
// the rest are the layer boundaries the bench can see from outside.
const (
	spOpGet uint8 = iota
	spOpTx
	spEncode
	spFlush
	spServerWait
	spDecode
	spEmbRead   // embedded replay roots: the facade called in-process
	spEmbCommit //
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op.get", "op.tx", "netproto.encode", "wire.flush", "server.wait", "netproto.decode",
	"turbobp.Read", "turbobp.Tx.Commit",
}

// span is one timed interval: which operation (trace) it belongs to, which
// span caused it (parent, 0 for a root), and when it ran, in nanoseconds
// since the recorder's origin.
type span struct {
	trace, id, parent uint32
	name              uint8
	start, end        int64
}

// recorder keeps one goroutine's spans in a slice sized before the timed
// pass begins, so recording costs two clock reads and no allocation; when
// the slice is full further spans are counted as dropped, not grown into.
type recorder struct {
	origin  time.Time
	spans   []span
	traces  uint32
	dropped int64
}

func newRecorder(origin time.Time, capacity int) *recorder {
	return &recorder{origin: origin, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id (0 when the recorder is full or
// nil); a root span (parent 0) starts a new trace.
func (r *recorder) begin(name uint8, parent uint32) uint32 {
	if r == nil {
		return 0
	}
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return 0
	}
	if parent == 0 {
		r.traces++
	}
	id := uint32(len(r.spans) + 1)
	r.spans = append(r.spans, span{trace: r.traces, id: id, parent: parent, name: name,
		start: int64(time.Since(r.origin))})
	return id
}

func (r *recorder) end(id uint32) {
	if r != nil && id != 0 {
		r.spans[id-1].end = int64(time.Since(r.origin))
	}
}

// selfTimes reduces recorders to per-name self times: a span's duration
// minus the part of it its child spans cover (children of one parent never
// overlap here: the client is a closed loop). rootNS is the summed duration
// of the root spans, the base of the self-time shares.
func selfTimes(recs []*recorder) (self [numSpanNames][]float64, rootNS float64) {
	for _, r := range recs {
		if r == nil {
			continue
		}
		covered := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.parent != 0 && s.end > 0 {
				covered[s.parent-1] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			if s.end == 0 {
				continue // cut off by the end of the pass
			}
			d := s.end - s.start
			self[s.name] = append(self[s.name], float64(d-covered[i]))
			if s.parent == 0 {
				rootNS += float64(d)
			}
		}
	}
	for i := range self {
		sort.Float64s(self[i])
	}
	return self, rootNS
}

// writeSpans writes the spans as JSON lines. Ids are made unique across
// recorders by putting the recorder's index in the high half.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for c, r := range recs {
		if r == nil {
			continue
		}
		hi := uint64(c) << 32
		for _, s := range r.spans {
			if s.end == 0 {
				continue
			}
			parent := uint64(0)
			if s.parent != 0 {
				parent = hi | uint64(s.parent)
			}
			fmt.Fprintf(w, `{"trace":%d,"span":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				hi|uint64(s.trace), hi|uint64(s.id), parent, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
