package wal

import (
	"os"
	"path/filepath"
	"testing"

	"turbobp/internal/device"
	"turbobp/internal/page"
	"turbobp/internal/sim"
)

const persistPageSize = 8192

func newPersistLog(t *testing.T, path string, existing bool) (*Log, *device.File) {
	t.Helper()
	open := device.OpenFile
	if existing {
		open = device.OpenFileExisting
	}
	dev, err := open(path, persistPageSize, 256)
	if err != nil {
		t.Fatalf("open log device: %v", err)
	}
	t.Cleanup(func() { dev.Close() })
	l := New(sim.NewEnv(), dev, persistPageSize, 256)
	l.SetPersist(true)
	return l, dev
}

// flushOne appends a record and flushes it in its own batch.
func flushOne(t *testing.T, l *Log, r Record) uint64 {
	t.Helper()
	env := sim.NewEnv()
	var lsn uint64
	env.Go("flush", func(p *sim.Proc) {
		lsn = l.Append(r)
		l.Flush(p, lsn)
	})
	env.Run(-1)
	return lsn
}

// TestPersistRoundTrip pins the reopen contract: records flushed by one log
// incarnation are reloaded by the next, LSN assignment continues where it
// left off, and a third incarnation sees both generations.
func TestPersistRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l1, _ := newPersistLog(t, path, false)
	for i := 0; i < 5; i++ {
		flushOne(t, l1, Record{Type: TypeUpdate, Page: page.ID(i), TxID: uint64(i + 1),
			Payload: []byte{byte('a' + i), byte(i)}})
	}
	flushOne(t, l1, Record{Type: TypeCommit, TxID: 5})

	l2, _ := newPersistLog(t, path, true)
	if err := l2.LoadDurable(); err != nil {
		t.Fatalf("LoadDurable: %v", err)
	}
	recs := l2.Durable()
	if len(recs) != 6 {
		t.Fatalf("reloaded %d records, want 6", len(recs))
	}
	for i := 0; i < 5; i++ {
		r := recs[i]
		if r.Type != TypeUpdate || r.Page != page.ID(i) || r.TxID != uint64(i+1) ||
			len(r.Payload) != 2 || r.Payload[0] != byte('a'+i) {
			t.Fatalf("record %d reloaded wrong: %+v", i, r)
		}
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d LSN = %d, want %d", i, r.LSN, i+1)
		}
	}
	if recs[5].Type != TypeCommit || recs[5].TxID != 5 {
		t.Fatalf("commit record reloaded wrong: %+v", recs[5])
	}
	if l2.NextLSN() != 7 {
		t.Fatalf("NextLSN after reload = %d, want 7", l2.NextLSN())
	}

	// The next incarnation's appends continue the stream.
	lsn := flushOne(t, l2, Record{Type: TypeUpdate, Page: 99, Payload: []byte("new")})
	if lsn != 7 {
		t.Fatalf("first post-reload LSN = %d, want 7", lsn)
	}
	l3, _ := newPersistLog(t, path, true)
	if err := l3.LoadDurable(); err != nil {
		t.Fatalf("LoadDurable (2nd reopen): %v", err)
	}
	if got := l3.Durable(); len(got) != 7 || got[6].Page != 99 {
		t.Fatalf("2nd reopen: %d records (last %+v), want 7 ending on page 99", len(got), got[len(got)-1])
	}
}

// TestPersistStraddlingRecords pins the pad-skip logic: a batch whose
// records straddle page boundaries reloads intact, and replay steps over
// the batch's zero-padded tail into the next batch.
func TestPersistStraddlingRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l1, _ := newPersistLog(t, path, false)
	env := sim.NewEnv()
	env.Go("flush", func(p *sim.Proc) {
		var last uint64
		big := make([]byte, persistPageSize+300) // straddles at least two pages
		for i := range big {
			big[i] = byte(i)
		}
		l1.Append(Record{Type: TypeUpdate, Page: 1, Payload: big})
		last = l1.Append(Record{Type: TypeUpdate, Page: 2, Payload: []byte("tail")})
		l1.Flush(p, last) // one batch, zero-padded tail page
		last = l1.Append(Record{Type: TypeUpdate, Page: 3, Payload: []byte("next")})
		l1.Flush(p, last) // second batch starts on a fresh page
	})
	env.Run(-1)

	l2, _ := newPersistLog(t, path, true)
	if err := l2.LoadDurable(); err != nil {
		t.Fatalf("LoadDurable: %v", err)
	}
	recs := l2.Durable()
	if len(recs) != 3 {
		t.Fatalf("reloaded %d records, want 3", len(recs))
	}
	if len(recs[0].Payload) != persistPageSize+300 || recs[0].Payload[persistPageSize] != byte(persistPageSize%256) {
		t.Fatalf("straddling payload reloaded wrong (len %d)", len(recs[0].Payload))
	}
	if string(recs[2].Payload) != "next" {
		t.Fatalf("record after pad = %+v", recs[2])
	}
}

// TestPersistTornTail pins torn-write handling: corrupting the last written
// page (as a mid-batch kill would) loses only that batch's records, replay
// keeps everything before it, and the scrubber zeroes the torn page so it
// cannot confuse a later reopen.
func TestPersistTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l1, _ := newPersistLog(t, path, false)
	for i := 0; i < 4; i++ {
		flushOne(t, l1, Record{Type: TypeUpdate, Page: page.ID(i), Payload: []byte{byte(i)}})
	}

	// Flip a payload byte in the last non-zero page: its record's CRC fails.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastPg := -1
	for p := 0; p+persistPageSize <= len(data); p += persistPageSize {
		for _, b := range data[p : p+persistPageSize] {
			if b != 0 {
				lastPg = p
				break
			}
		}
	}
	if lastPg < persistPageSize {
		t.Fatalf("expected at least 2 written pages, last non-zero at %d", lastPg)
	}
	data[lastPg+20] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, _ := newPersistLog(t, path, true)
	if err := l2.LoadDurable(); err != nil {
		t.Fatalf("LoadDurable: %v", err)
	}
	if got := len(l2.Durable()); got != 3 {
		t.Fatalf("reloaded %d records after torn tail, want 3", got)
	}

	// The torn page must have been scrubbed to zero.
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range data[lastPg : lastPg+persistPageSize] {
		if b != 0 {
			t.Fatalf("torn page byte %d not scrubbed (=%#x)", i, b)
		}
	}

	// New appends land where the torn batch was and survive another reopen.
	flushOne(t, l2, Record{Type: TypeUpdate, Page: 7, Payload: []byte("replacement")})
	l3, _ := newPersistLog(t, path, true)
	if err := l3.LoadDurable(); err != nil {
		t.Fatalf("LoadDurable (after rewrite): %v", err)
	}
	recs := l3.Durable()
	if len(recs) != 4 || string(recs[3].Payload) != "replacement" {
		t.Fatalf("after rewrite: %d records, want 4 ending in replacement", len(recs))
	}
}

// TestPersistCapacityPanics pins that the persisted log refuses to wrap:
// overwriting the oldest pages would destroy the recovery stream, so
// exhausting the capacity is a hard failure, not silent data loss.
func TestPersistCapacityPanics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	dev, err := device.OpenFile(path, persistPageSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	l := New(sim.NewEnv(), dev, persistPageSize, 2)
	l.SetPersist(true)
	panicked := false
	env := sim.NewEnv()
	env.Go("fill", func(p *sim.Proc) {
		defer func() { panicked = recover() != nil }()
		for i := 0; i < 3; i++ {
			lsn := l.Append(Record{Type: TypeUpdate, Page: 1, Payload: make([]byte, persistPageSize/2)})
			l.Flush(p, lsn)
		}
	})
	env.Run(-1)
	if !panicked {
		t.Fatal("no panic when the persisted log wrapped")
	}
}

// TestPersistedLogExhaustion pins the end of a persisted log: Remaining
// counts down by at most FlushPages per flush, and running off the end — a
// caller bug, the engine refuses with ErrLogFull first — panics before the
// batch is detached or the flushing flag set, so nothing later parks behind
// a flight that never lands.
func TestPersistedLogExhaustion(t *testing.T) {
	l, _ := newPersistLog(t, filepath.Join(t.TempDir(), "wal.log"), false)
	rec := Record{Type: TypeUpdate, Page: 1, TxID: 1, Payload: []byte("x")}
	for l.Remaining() > 0 {
		before := l.Remaining()
		flushOne(t, l, rec)
		if used := before - l.Remaining(); used < 1 || used > l.FlushPages(1, len(rec.Payload)) {
			t.Fatalf("one flush used %d pages, bound %d", used, l.FlushPages(1, len(rec.Payload)))
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("flush past the end of a persisted log did not panic")
			}
		}()
		flushOne(t, l, rec)
	}()
	if l.flushing || len(l.pending) != 1 || l.Remaining() != 0 {
		t.Fatalf("after the panic: flushing=%v pending=%d remaining=%d, want false 1 0",
			l.flushing, len(l.pending), l.Remaining())
	}
}
