package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"turbobp/internal/page"
)

// Binary log record codec. The in-memory Log keeps decoded records for the
// simulated backend; this codec serializes them for file-backed logs and
// for exporting/importing recovery state. Each record is framed as:
//
//	offset  size  field
//	0       4     length of everything after this field
//	4       4     CRC-32C of everything after this field
//	8       8     LSN
//	16      1     type
//	17      8     page id
//	25      8     tx id
//	33      8     start LSN (checkpoints)
//	41      8     append time (virtual, nanoseconds)
//	49      4     payload length
//	53      ...   payload
//
// A stream is a concatenation of frames; Decode detects truncation and
// corruption, so replay stops cleanly at the first torn record — the
// classic write-ahead log recovery contract.

const frameHeader = 53

var codecTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptRecord reports a framing or checksum failure.
var ErrCorruptRecord = errors.New("wal: corrupt record")

// ErrTruncated reports a partial record at the end of a stream (a torn
// write); everything before it is valid.
var ErrTruncated = errors.New("wal: truncated record")

// EncodeRecord appends the serialized form of r to dst and returns the
// extended slice. The frame is built in place, so the only allocation is
// dst's own amortized growth.
func EncodeRecord(dst []byte, r Record) []byte {
	bodyLen := frameHeader - 8 + len(r.Payload)
	start := len(dst)
	need := 8 + bodyLen
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), 2*cap(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:start+need]
	body := dst[start+8:]
	binary.LittleEndian.PutUint64(body[0:8], r.LSN)
	body[8] = byte(r.Type)
	binary.LittleEndian.PutUint64(body[9:17], uint64(r.Page))
	binary.LittleEndian.PutUint64(body[17:25], r.TxID)
	binary.LittleEndian.PutUint64(body[25:33], r.StartLSN)
	binary.LittleEndian.PutUint64(body[33:41], uint64(r.At))
	binary.LittleEndian.PutUint32(body[41:45], uint32(len(r.Payload)))
	copy(body[45:], r.Payload)
	binary.LittleEndian.PutUint32(dst[start:start+4], uint32(bodyLen))
	binary.LittleEndian.PutUint32(dst[start+4:start+8], crc32.Checksum(body, codecTable))
	return dst
}

// DecodeRecord parses one record from buf, returning it and the number of
// bytes consumed. It returns ErrTruncated when buf holds only part of a
// record and ErrCorruptRecord when the frame fails validation.
func DecodeRecord(buf []byte) (Record, int, error) {
	if len(buf) < 8 {
		return Record{}, 0, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint32(buf[0:4]))
	if n == 0 && binary.LittleEndian.Uint32(buf[4:8]) == 0 {
		// An all-zero frame header is the clean end of a zero-filled
		// (preallocated or torn-then-zero-padded) log region, not
		// corruption: replay stops here.
		return Record{}, 0, ErrTruncated
	}
	if n < frameHeader-8 {
		return Record{}, 0, fmt.Errorf("%w: impossible body length %d", ErrCorruptRecord, n)
	}
	if len(buf) < 8+n {
		return Record{}, 0, ErrTruncated
	}
	body := buf[8 : 8+n]
	if got, want := crc32.Checksum(body, codecTable), binary.LittleEndian.Uint32(buf[4:8]); got != want {
		return Record{}, 0, fmt.Errorf("%w: checksum %#x, want %#x", ErrCorruptRecord, got, want)
	}
	r := Record{
		LSN:      binary.LittleEndian.Uint64(body[0:8]),
		Type:     Type(body[8]),
		Page:     page.ID(binary.LittleEndian.Uint64(body[9:17])),
		TxID:     binary.LittleEndian.Uint64(body[17:25]),
		StartLSN: binary.LittleEndian.Uint64(body[25:33]),
		At:       time.Duration(binary.LittleEndian.Uint64(body[33:41])),
	}
	plen := int(binary.LittleEndian.Uint32(body[41:45]))
	if plen != len(body)-45 {
		return Record{}, 0, fmt.Errorf("%w: payload length %d in a %d-byte body", ErrCorruptRecord, plen, len(body))
	}
	if plen > 0 {
		r.Payload = append([]byte(nil), body[45:]...)
	}
	return r, 8 + n, nil
}

// EncodeStream serializes records into one byte stream.
func EncodeStream(records []Record) []byte {
	var out []byte
	for _, r := range records {
		out = EncodeRecord(out, r)
	}
	return out
}

// DecodeStream parses records until the stream ends. A trailing torn
// record is tolerated (the records before it are returned with a nil
// error), matching recovery semantics; mid-stream corruption returns
// ErrCorruptRecord with the records decoded so far.
func DecodeStream(buf []byte) ([]Record, error) {
	var out []Record
	for len(buf) > 0 {
		r, n, err := DecodeRecord(buf)
		if errors.Is(err, ErrTruncated) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
		buf = buf[n:]
	}
	return out, nil
}

// ReadDurable replaces the log's durable records with the stream read from
// r, as an import after process restart would. The next LSN advances past
// the highest imported record.
func (l *Log) ReadDurable(r io.Reader) error {
	l.mustRetain("ReadDurable")
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return err
	}
	recs, err := DecodeStream(buf.Bytes())
	if err != nil {
		return err
	}
	l.durable.reset(recs)
	l.pending = nil
	l.pendingB = 0
	for _, rec := range recs {
		if rec.LSN >= l.nextLSN {
			l.nextLSN = rec.LSN + 1
		}
		if rec.LSN > l.flushedLSN {
			l.flushedLSN = rec.LSN
		}
	}
	return nil
}
