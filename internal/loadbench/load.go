package loadbench

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"turbobp/internal/metrics"
	"turbobp/internal/netproto"
)

// StampLen is the self-describing page header: seq(8) writer(4) crc(4).
const StampLen = 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func stampCRC(buf []byte, pid int64) uint32 {
	var key [20]byte
	copy(key[:12], buf[:12])
	binary.LittleEndian.PutUint64(key[12:20], uint64(pid))
	return crc32.Checksum(key[:], castagnoli)
}

// StampPage writes the verification header into buf (len >= StampLen).
func StampPage(buf []byte, pid int64, seq uint64, writer uint32) {
	binary.LittleEndian.PutUint64(buf[0:8], seq)
	binary.LittleEndian.PutUint32(buf[8:12], writer)
	binary.LittleEndian.PutUint32(buf[12:16], stampCRC(buf, pid))
}

// PageState classifies a read-back page header.
type PageState int

const (
	// PageUnwritten: the header is all zeroes — the page was never stamped.
	PageUnwritten PageState = iota
	// PageOK: the header checksum matches.
	PageOK
	// PageCorrupt: a nonzero header whose checksum does not match — a torn
	// or foreign write.
	PageCorrupt
)

// CheckPage decodes and classifies a page header read back from pid.
func CheckPage(buf []byte, pid int64) (seq uint64, writer uint32, st PageState) {
	if len(buf) < StampLen {
		return 0, 0, PageCorrupt
	}
	zero := true
	for _, b := range buf[:StampLen] {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		return 0, 0, PageUnwritten
	}
	seq = binary.LittleEndian.Uint64(buf[0:8])
	writer = binary.LittleEndian.Uint32(buf[8:12])
	if binary.LittleEndian.Uint32(buf[12:16]) != stampCRC(buf, pid) {
		return seq, writer, PageCorrupt
	}
	return seq, writer, PageOK
}

// Update is one page write inside a SendTx transaction.
type Update struct {
	Page int64
	Data []byte
}

// SendTx sends the updates and a commit over cl as one transaction, honoring
// the reconnect contract: the server's per-connection transaction dies with
// the connection, so if the client reconnected at any point during the
// sequence the whole thing is re-sent rather than committing a partial
// transaction or trusting a commit ack from a fresh, empty session. The
// redo is idempotent (same pages, same data), so an ambiguous commit — the
// server applied it but the ack was lost — resolves to the same state.
func SendTx(cl *netproto.Client, updates []Update) error {
	for attempt := 0; attempt < 6; attempt++ {
		r0 := cl.Stats().Reconnects
		for i := range updates {
			resp, err := cl.Do(&netproto.Request{Op: netproto.OpUpdate, Page: updates[i].Page, Data: updates[i].Data})
			if err != nil {
				return err
			}
			if resp.Status != netproto.StatusOK {
				return fmt.Errorf("update page %d: %s", updates[i].Page, resp.Data)
			}
		}
		if cl.Stats().Reconnects != r0 {
			continue // tx state lost mid-sequence; redo before committing a partial tx
		}
		resp, err := cl.Do(&netproto.Request{Op: netproto.OpCommit})
		if err != nil {
			return err
		}
		if resp.Status != netproto.StatusOK {
			return fmt.Errorf("commit: %s", resp.Data)
		}
		if cl.Stats().Reconnects != r0 {
			continue // the ack may be from a fresh, empty session; redo
		}
		return nil
	}
	return errors.New("transaction kept losing its connection")
}

// rywEvery is the read-your-writes cadence: after every rywEvery-th
// acknowledged commit a writer reads that commit's pages straight back,
// and they must hold exactly the seq it just committed.
const rywEvery = 8

// track is the ledger of one page, or of a pair of pages stamped with the
// same seq inside one transaction.
type track struct {
	pages    []int64 // one page, or a pair in different partitions
	owner    uint32  // the only writer id allowed to stamp them
	acked    uint64  // durability floor: last seq whose commit was acknowledged
	sent     uint64  // ceiling: last seq ever sent
	lastSeen uint64  // highest seq an earlier Verify observed
}

// read fetches t's pages over cl, copying each: a Get's payload is only
// valid until the client's next call.
func (t *track) read(cl *netproto.Client) ([][]byte, error) {
	data := make([][]byte, len(t.pages))
	for i, pid := range t.pages {
		d, err := cl.Get(pid)
		if err != nil {
			return nil, err
		}
		data[i] = append([]byte(nil), d...)
	}
	return data, nil
}

// Report counts what the verifier found. Any nonzero counter means the
// durability or atomicity contract broke.
type Report struct {
	Pages   int   // pages read back
	Lost    int64 // a seq below the acked floor (an unwritten page reads as seq 0)
	Stale   int64 // a seq below what an earlier Verify saw
	Corrupt int64 // a bad stamp checksum, or a stamp by another writer
	Phantom int64 // a seq above anything ever sent
	Torn    int64 // a pair whose pages carry unequal seqs
}

// Violations sums the violation counters.
func (r *Report) Violations() int64 {
	return r.Lost + r.Stale + r.Corrupt + r.Phantom + r.Torn
}

// classify checks the bytes read back for t, one buffer per page of
// t.pages, against its ledger. It returns the violations, the highest seq
// an intact page carried and one reason per violation; t is unchanged.
func (t *track) classify(data [][]byte) (r Report, seen uint64, why []string) {
	flag := func(n *int64, format string, args ...any) {
		*n++
		why = append(why, fmt.Sprintf(format, args...))
	}
	intact := 0
	for i, pid := range t.pages {
		seq, wr, st := CheckPage(data[i], pid)
		if st == PageCorrupt {
			flag(&r.Corrupt, "page %d: corrupt stamp", pid)
			continue
		}
		if st == PageOK && wr != t.owner {
			flag(&r.Corrupt, "page %d: stamped by writer %d, owned by %d", pid, wr, t.owner)
			continue
		}
		if seq < t.acked {
			flag(&r.Lost, "page %d: seq %d below acked %d", pid, seq, t.acked)
		}
		if seq > t.sent {
			flag(&r.Phantom, "page %d: seq %d beyond anything sent (%d)", pid, seq, t.sent)
		}
		if seq < t.lastSeen {
			flag(&r.Stale, "page %d: seq %d went back from %d", pid, seq, t.lastSeen)
		}
		if intact > 0 && seq != seen {
			flag(&r.Torn, "pages %v: torn, seq %d vs %d", t.pages, seen, seq)
		}
		intact++
		seen = max(seen, seq)
	}
	return r, seen, why
}

// Writer is the one stamped-page writer of both load modes. It alone
// writes its tracks, so each page has one legal stamp owner. It raises a
// track's ceiling before sending, the floor only when the commit is
// acknowledged, and checks read-your-writes every rywEvery-th ack.
type Writer struct {
	id     uint32
	tracks []track
	value  [][]byte // one buffer per page of a track
	rng    *rand.Rand

	Acked    int64             // commits acknowledged
	RYWFails int64             // read-your-writes checks that found a violation
	Latency  metrics.Histogram // acknowledged transaction round trips
}

// NewWriter returns writer id over the n tracks starting at page first.
// With pairOff > 0 track k is the pair (first+k, first+k+pairOff),
// committed in one transaction with one seq. valueSize (>= StampLen) is
// the bytes written per page; seed drives the track choice and payload.
func NewWriter(id uint32, first int64, n int, pairOff int64, valueSize int, seed int64) *Writer {
	w := &Writer{id: id, rng: rand.New(rand.NewSource(seed))}
	width := 1
	if pairOff > 0 {
		width = 2
	}
	for k := first; k < first+int64(n); k++ {
		pages := []int64{k, k + pairOff}[:width]
		w.tracks = append(w.tracks, track{pages: pages, owner: id})
	}
	for range width {
		w.value = append(w.value, make([]byte, valueSize))
	}
	return w
}

// Run sends stamped transactions over cl until done reports true and
// returns the first error; whether to redial is the caller's decision.
// note receives one line per violation a read-your-writes check finds.
func (w *Writer) Run(cl *netproto.Client, done func() bool, note func(string)) error {
	ups := make([]Update, len(w.value))
	for !done() {
		t := &w.tracks[w.rng.Intn(len(w.tracks))]
		t.sent++
		for i, pid := range t.pages {
			w.rng.Read(w.value[i][StampLen:])
			StampPage(w.value[i], pid, t.sent, w.id)
			ups[i] = Update{Page: pid, Data: w.value[i]}
		}
		t0 := time.Now()
		if err := SendTx(cl, ups); err != nil {
			return err
		}
		w.Latency.Observe(time.Since(t0))
		t.acked = t.sent
		if w.Acked++; w.Acked%rywEvery != 0 {
			continue
		}
		data, err := t.read(cl)
		if err != nil {
			return err
		}
		if r, _, why := t.classify(data); r.Violations() > 0 {
			w.RYWFails++
			for _, s := range why {
				note(fmt.Sprintf("writer %d read-your-writes: %s", w.id, s))
			}
		}
	}
	return nil
}

// Verify rereads, over its own connection to addr, every page the writers
// ever sent to, classifies it against its track's ledger, and raises each
// track's last-seen seq, so the next pass also catches a page moving
// backwards. note receives one line per violation. The writers must be
// stopped.
func Verify(addr string, ws []*Writer, note func(string)) (Report, error) {
	var rep Report
	cl, err := netproto.Dial(netproto.ClientConfig{Addr: addr, Deadline: 5 * time.Second, Seed: 99})
	if err != nil {
		return rep, err
	}
	defer cl.Close()
	for _, w := range ws {
		for i := range w.tracks {
			t := &w.tracks[i]
			if t.sent == 0 {
				continue // never written: nothing to hold it to
			}
			data, err := t.read(cl)
			if err != nil {
				return rep, err
			}
			r, seen, why := t.classify(data)
			rep.Pages += len(t.pages)
			rep.Lost += r.Lost
			rep.Stale += r.Stale
			rep.Corrupt += r.Corrupt
			rep.Phantom += r.Phantom
			rep.Torn += r.Torn
			t.lastSeen = max(t.lastSeen, seen)
			for _, s := range why {
				note(s)
			}
		}
	}
	return rep, nil
}

// WaitHealthy polls the server at addr with the health op until it
// answers ok, or fails after timeout.
func WaitHealthy(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		cl, err := netproto.Dial(netproto.ClientConfig{
			Addr: addr, DialTimeout: 200 * time.Millisecond,
			MaxReconnects: 1, BaseBackoff: time.Millisecond,
		})
		if err == nil {
			ok, herr := cl.Health()
			cl.Close()
			if ok && herr == nil {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("server at %s not healthy within %s", addr, timeout)
}
