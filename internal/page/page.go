// Package page defines the on-device page format shared by the database,
// the SSD buffer-pool file, and the log.
//
// A page is a fixed-size buffer with a small header:
//
//	offset  size  field
//	0       4     magic
//	4       4     checksum (CRC-32C of everything after this field)
//	8       8     page id
//	16      8     LSN of the last update applied
//	24      ...   payload
//
// The engine treats the payload as opaque workload bytes; the LSN in the
// header is what recovery compares against log records.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// HeaderSize is the number of bytes of page metadata before the payload.
const HeaderSize = 24

// Magic marks a formatted page.
const Magic = 0x42504531 // "BPE1"

// ErrCorrupt is returned when a page fails validation.
var ErrCorrupt = errors.New("page: corrupt")

// ErrChecksum classifies validation failures that indicate the stored
// bytes differ from what was written: a flipped bit, a truncated image, a
// frame holding the wrong page. Every *ChecksumError matches both
// ErrChecksum and the legacy ErrCorrupt sentinel.
var ErrChecksum = errors.New("page: checksum verification failed")

// ErrBlank is returned by Decode for an all-zero buffer: never-written
// device space, the same zero-fill rule the WAL applies to its tail. It is
// deliberately NOT ErrCorrupt — clean unformatted space is not damage.
var ErrBlank = errors.New("page: blank (never written)")

// ChecksumError is the typed failure Decode and the read paths report for
// corrupt page images. Decode fills Reason/Got/Want; callers that know
// where the bytes came from annotate ID, Device, and Slot before
// propagating.
type ChecksumError struct {
	ID     ID     // page id the caller expected, 0 if unknown
	Device string // "db", "ssd", ... — filled by the read path
	Slot   int64  // device page / frame slot — filled by the read path
	Reason string // "short", "magic", "crc", "id", or "lsn"
	Got    uint64 // observed value (checksum, id, or lsn per Reason)
	Want   uint64 // expected value
}

// Error names the page, the failed check and the observed and expected
// values.
func (e *ChecksumError) Error() string {
	loc := ""
	if e.Device != "" {
		loc = fmt.Sprintf(" on %s slot %d", e.Device, e.Slot)
	}
	return fmt.Sprintf("page %d%s: %s mismatch (got %#x, want %#x)",
		e.ID, loc, e.Reason, e.Got, e.Want)
}

// Is makes errors.Is(err, ErrChecksum) and errors.Is(err, ErrCorrupt)
// both true for any ChecksumError.
func (e *ChecksumError) Is(target error) bool {
	return target == ErrChecksum || target == ErrCorrupt
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ID identifies a logical database page.
type ID int64

// Page is the decoded, in-memory form of a page.
type Page struct {
	ID      ID
	LSN     uint64
	Payload []byte
}

// Encode serializes p into buf, which must be at least HeaderSize +
// len(p.Payload) bytes; the remainder of buf is zeroed.
func Encode(p *Page, buf []byte) error {
	need := HeaderSize + len(p.Payload)
	if len(buf) < need {
		return fmt.Errorf("page: buffer %d bytes, need %d", len(buf), need)
	}
	binary.LittleEndian.PutUint32(buf[0:4], Magic)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(p.ID))
	binary.LittleEndian.PutUint64(buf[16:24], p.LSN)
	copy(buf[HeaderSize:], p.Payload)
	for i := need; i < len(buf); i++ {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(buf[8:], castagnoli))
	return nil
}

// Decode parses buf into p, verifying magic and checksum. The payload slice
// aliases buf; callers that retain it must copy.
//
// Failures are typed: an all-zero buffer is ErrBlank (never-written space,
// mirroring the WAL's zero-fill rule), everything else is a *ChecksumError
// matching both ErrChecksum and ErrCorrupt.
func Decode(buf []byte, p *Page) error {
	if len(buf) < HeaderSize {
		return &ChecksumError{Reason: "short", Got: uint64(len(buf)), Want: HeaderSize}
	}
	if magic := binary.LittleEndian.Uint32(buf[0:4]); magic != Magic {
		if magic == 0 && Blank(buf) {
			return ErrBlank
		}
		return &ChecksumError{Reason: "magic", Got: uint64(magic), Want: Magic}
	}
	if got, want := crc32.Checksum(buf[8:], castagnoli), binary.LittleEndian.Uint32(buf[4:8]); got != want {
		return &ChecksumError{Reason: "crc", Got: uint64(got), Want: uint64(want)}
	}
	p.ID = ID(binary.LittleEndian.Uint64(buf[8:16]))
	p.LSN = binary.LittleEndian.Uint64(buf[16:24])
	p.Payload = buf[HeaderSize:]
	return nil
}

// DecodeAs is Decode for bytes read back as page id from slot of device dev:
// besides Decode's checks it requires the header to name id, and a failed
// check comes back as a *ChecksumError stamped with id, dev and slot
// (ErrBlank stays as it is). The LSN is the caller's to check: each read
// path has its own rule.
func DecodeAs(buf []byte, id ID, dev string, slot int64, p *Page) error {
	err := Decode(buf, p)
	if err == nil && p.ID != id {
		err = &ChecksumError{Reason: "id", Got: uint64(p.ID), Want: uint64(id)}
	}
	if ce, ok := err.(*ChecksumError); ok { // Decode's errors are never wrapped
		ce.ID, ce.Device, ce.Slot = id, dev, slot
	}
	return err
}

// Blank reports whether buf looks like never-written device space (all
// zeros), which reads of unformatted pages return.
func Blank(buf []byte) bool {
	for _, b := range buf {
		if b != 0 {
			return false
		}
	}
	return true
}
