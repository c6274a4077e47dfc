package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"turbobp/internal/device"
)

// This file is the restart half of the persisted log (SetPersist): reading
// the record stream a previous process — possibly one killed mid-write —
// left on the log device, and re-establishing the in-memory durable set,
// LSN counters and write position from it.
//
// On-device layout: every flush batch starts at a page boundary, records
// may straddle pages within a batch, and the batch's tail page is
// zero-padded. Replay therefore walks pages from the start of the device,
// decoding records and skipping pad regions at page boundaries, and stops
// at the first page-aligned position holding no record. Two hazards make
// the stop condition stricter than "decode failed":
//
//   - A torn tail: the process died mid-batch, leaving a prefix of the
//     batch's pages. The partial record (or garbage) ends replay; every
//     record before it is intact (each frame is CRC-protected). The log is
//     only ever appended, so a torn write can only cut the last batch: a
//     record that fails its check while a later batch start still decodes
//     a record continuing the stream is mid-log damage, not a torn tail,
//     and LoadDurable refuses it (ErrLogDamaged) without scrubbing.
//   - Stale bytes: pages written by an earlier incarnation beyond the
//     current end of log. A record there decodes fine but its LSN does not
//     continue the stream, so the LSN-continuity check rejects it. As a
//     belt-and-braces measure LoadDurable also zeroes the region between
//     the recovered end of log and the first already-zero page, so stale
//     bytes never survive a reopen at all.

// maxRecordBody bounds a persisted record's claimed body length; anything
// larger in a header is treated as a torn tail rather than trusted (a torn
// header could otherwise send replay scanning gigabytes of zeros).
const maxRecordBody = 1 << 26

// ErrLogDamaged reports a record that fails its CRC or framing check in
// the middle of a persisted log: a later batch still holds records that
// continue the stream, so the failure is not a torn tail. Replay cannot
// skip the hole, and truncating there would drop acknowledged commits.
var ErrLogDamaged = errors.New("wal: log damaged mid-stream")

// LoadDurable rebuilds the log's durable record set from the persisted log
// device after a reopen (device.OpenFileExisting). It replaces the durable
// records, clears pending state, advances NextLSN/FlushedLSN past the
// highest recovered record, positions the next flush after the recovered
// end of log, and scrubs any torn or stale tail bytes. Mid-log damage
// fails with an error wrapping ErrLogDamaged that names the byte offsets,
// and leaves the device and the log untouched. Call it once,
// before the first Append, on a log whose device holds a previous
// incarnation's stream; a fresh (all-zero) device yields an empty log.
func (l *Log) LoadDurable() error {
	l.mustRetain("LoadDurable")
	if !l.persist {
		return errors.New("wal: LoadDurable requires persist mode (SetPersist)")
	}
	pg := make([]byte, l.pageSize)
	data := make([]byte, 0, 16*l.pageSize)
	var pagesRead device.PageNum
	var readErr error
	readPage := func() bool {
		if pagesRead >= l.capacity {
			return false
		}
		if err := device.Read(nil, l.dev, pagesRead, [][]byte{pg}); err != nil {
			readErr = fmt.Errorf("wal: load durable: page %d: %w", pagesRead, err)
			return false
		}
		pagesRead++
		data = append(data, pg...)
		return true
	}

	var recs []Record
	off := 0  // decode position in data
	end := 0  // byte offset just past the last accepted record
	bad := -1 // byte offset of a record that failed its check
	expect := uint64(0)
scan:
	for {
		for len(data)-off < 8 {
			if !readPage() {
				break scan
			}
		}
		hdr := data[off : off+8]
		if binary.LittleEndian.Uint64(hdr) == 0 {
			if off%l.pageSize == 0 {
				break // a batch never starts with padding: end of log
			}
			off = (off/l.pageSize + 1) * l.pageSize // skip the batch's pad
			continue
		}
		n := int(binary.LittleEndian.Uint32(hdr[0:4]))
		if n < frameHeader-8 || n > maxRecordBody {
			bad = off // garbage header: torn tail or damage
			break
		}
		for len(data)-off < 8+n {
			if !readPage() {
				break scan // record runs past the written region: torn tail
			}
		}
		r, sz, err := DecodeRecord(data[off:])
		if err != nil {
			bad = off // CRC or framing failure: torn tail or damage
			break
		}
		if expect != 0 && r.LSN != expect {
			break // stale bytes from an earlier incarnation
		}
		recs = append(recs, r)
		expect = r.LSN + 1
		off += sz
		end = off
	}
	// Tell a torn tail from damage: probe each later batch start up to the
	// first all-zero page. A record there that continues the stream was
	// written after the failed one, so the failed one is not the tail.
probe:
	for q := (bad/l.pageSize + 1) * l.pageSize; bad >= 0; q += l.pageSize {
		for len(data) < q+l.pageSize {
			if !readPage() {
				break probe
			}
		}
		if allZero(data[q : q+l.pageSize]) {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[q : q+4]))
		if n < frameHeader-8 || n > maxRecordBody {
			continue
		}
		for len(data) < q+8+n {
			if !readPage() {
				break probe
			}
		}
		if r, _, err := DecodeRecord(data[q:]); err == nil && r.LSN >= expect {
			return fmt.Errorf("%w: the record at byte %d fails its check, but the record at byte %d (LSN %d) continues the log",
				ErrLogDamaged, bad, q, r.LSN)
		}
	}
	if readErr != nil {
		return readErr
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
	l.writePos = device.PageNum((end + l.pageSize - 1) / l.pageSize)
	return l.scrubTail()
}

// scrubTail zeroes device pages from the write position to the first
// already-zero page, erasing torn-tail and stale bytes so the next reopen's
// replay cannot mistake them for live records.
func (l *Log) scrubTail() error {
	pg := make([]byte, l.pageSize)
	var zero []byte
	for p := l.writePos; p < l.capacity; p++ {
		if err := device.Read(nil, l.dev, p, [][]byte{pg}); err != nil {
			return fmt.Errorf("wal: scrub tail: read page %d: %w", p, err)
		}
		if allZero(pg) {
			return nil
		}
		if zero == nil {
			zero = make([]byte, l.pageSize)
		}
		if err := device.Write(nil, l.dev, p, [][]byte{zero}); err != nil {
			return fmt.Errorf("wal: scrub tail: zero page %d: %w", p, err)
		}
	}
	return nil
}

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
