package wal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"turbobp/internal/device"
	"turbobp/internal/page"
	"turbobp/internal/sim"
)

func sampleRecords() []Record {
	return []Record{
		{LSN: 1, Type: TypeUpdate, Page: 42, TxID: 7, Payload: []byte("abc")},
		{LSN: 2, Type: TypeCommit, TxID: 7},
		{LSN: 3, Type: TypeCheckpoint, StartLSN: 2, Payload: []byte{1, 2, 3, 4}},
		{LSN: 4, Type: TypeUpdate, Page: 1 << 40, TxID: 9, Payload: nil},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	in := sampleRecords()
	out, err := DecodeStream(EncodeStream(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestDecodeTornTailTolerated(t *testing.T) {
	buf := EncodeStream(sampleRecords())
	// Chop mid-way through the final record: recovery keeps the prefix.
	out, err := DecodeStream(buf[:len(buf)-5])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Errorf("decoded %d records from torn stream, want 3", len(out))
	}
}

func TestDecodeCorruptionDetected(t *testing.T) {
	buf := EncodeStream(sampleRecords())
	buf[20] ^= 0xFF // inside the first record's body
	out, err := DecodeStream(buf)
	if !errors.Is(err, ErrCorruptRecord) {
		t.Errorf("err = %v, want ErrCorruptRecord", err)
	}
	if len(out) != 0 {
		t.Errorf("decoded %d records before corruption, want 0", len(out))
	}
}

func TestDecodeImpossibleLength(t *testing.T) {
	var buf [8]byte // length 0 body but a nonzero checksum: not zero-fill
	buf[4] = 1
	if _, _, err := DecodeRecord(buf[:]); !errors.Is(err, ErrCorruptRecord) {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeZeroFillIsTruncation(t *testing.T) {
	// An all-zero header is the clean end of a zero-filled log region.
	var buf [8]byte
	if _, _, err := DecodeRecord(buf[:]); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	prop := func(lsn uint64, typ uint8, pg int64, tx uint64, start uint64, payload []byte) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		in := Record{
			LSN: lsn, Type: Type(typ%3 + 1), Page: pageIDOf(pg), TxID: tx,
			StartLSN: start,
		}
		if len(payload) > 0 {
			in.Payload = payload
		}
		got, n, err := DecodeRecord(EncodeRecord(nil, in))
		if err != nil || n == 0 {
			return false
		}
		return reflect.DeepEqual(in, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: any single bit flip anywhere in an encoded record is detected
// (as corruption or truncation), never silently accepted as different data.
func TestCodecBitFlipProperty(t *testing.T) {
	base := EncodeRecord(nil, Record{LSN: 9, Type: TypeUpdate, Page: 5, Payload: []byte("payload!")})
	orig, _, _ := DecodeRecord(base)
	prop := func(pos uint16, bit uint8) bool {
		buf := append([]byte(nil), base...)
		buf[int(pos)%len(buf)] ^= 1 << (bit % 8)
		got, _, err := DecodeRecord(buf)
		if err != nil {
			return true // detected
		}
		// A flip in the length field can still decode if... it cannot:
		// the checksum covers the body and the length selects the body.
		return reflect.DeepEqual(got, orig)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLogExportImport exports a log's durable records as the torn-log fault
// cell does (EncodeStream over Durable) and imports them into a fresh log
// with ReadDurable.
func TestLogExportImport(t *testing.T) {
	env := sim.NewEnv()
	dev := device.NewHDD(env, device.PaperHDDProfile(), 1<<20)
	l := New(env, dev, 8192, 1<<20)
	env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			lsn := l.Append(Record{Type: TypeUpdate, Page: 1, Payload: []byte{byte(i)}})
			l.Flush(p, lsn)
		}
		l.Append(Record{Type: TypeUpdate, Page: 2}) // pending: not exported
	})
	env.Run(-1)

	l2 := New(sim.NewEnv(), dev, 8192, 1<<20)
	if err := l2.ReadDurable(bytes.NewReader(EncodeStream(l.Durable()))); err != nil {
		t.Fatal(err)
	}
	if len(l2.Durable()) != 5 {
		t.Fatalf("imported %d records, want 5", len(l2.Durable()))
	}
	if l2.NextLSN() != 6 {
		t.Errorf("NextLSN = %d, want 6", l2.NextLSN())
	}
	if l2.FlushedLSN() != 5 {
		t.Errorf("FlushedLSN = %d, want 5", l2.FlushedLSN())
	}
	if !reflect.DeepEqual(l.Durable(), l2.Durable()) {
		t.Error("imported records differ")
	}
}

// pageIDOf converts a raw int64 to a page id for the property test.
func pageIDOf(v int64) page.ID { return page.ID(v) }
