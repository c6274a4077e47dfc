// Package netproto is the length-prefixed binary protocol spoken between
// the bpeserve network server and its clients (cmd/bpeload). It is
// deliberately tiny: six operations, fixed little-endian headers, payloads
// bounded by MaxData. A connection is a session: updates accumulate in the
// connection's open transaction until a commit request seals them.
//
// Fault tolerance is part of the wire contract:
//
//   - Every request carries an optional deadline (milliseconds of budget
//     the client grants the server). A server that cannot answer in time
//     replies StatusDeadline instead of leaving the client hanging.
//   - Error statuses are typed. StatusErr is terminal — retrying the same
//     request cannot help. StatusShed, StatusDeadline and StatusBusy are
//     retryable: the failure is about load or timing, not the request, so
//     backing off and retrying (see Client) is the correct response.
//   - OpHealth and OpStats let operators and load balancers probe a server
//     without touching the database.
package netproto

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Operations.
const (
	// OpGet reads one page: Page set, response data = payload.
	OpGet byte = 1
	// OpUpdate writes Data over the head of page Page's payload inside the
	// connection's transaction (opened lazily).
	OpUpdate byte = 2
	// OpCommit commits the connection's transaction; no-op if none open.
	OpCommit byte = 3
	// OpScan reads N consecutive pages from Page through the engine's
	// read-ahead path; response data = concatenated payloads.
	OpScan byte = 4
	// OpHealth probes liveness: the response is StatusOK with data "ok"
	// while the server accepts work, and a retryable status while it is
	// draining or overloaded. Never touches the database.
	OpHealth byte = 5
	// OpStats returns a human-readable snapshot of server counters
	// (in-flight requests, sheds, served ops) as the response data.
	OpStats byte = 6
)

// Response statuses.
const (
	// StatusOK is success.
	StatusOK byte = 0
	// StatusErr is a terminal error: the request itself is wrong (bad page,
	// bad op, oversized data) and retrying it verbatim cannot succeed.
	// Response data = error text.
	StatusErr byte = 1
	// StatusShed means admission control rejected the request: the server
	// is over its in-flight or memory limit. Retry after backoff.
	StatusShed byte = 2
	// StatusDeadline means the request's deadline expired before the server
	// finished (or started) it. The operation may or may not have applied —
	// the classic commit ambiguity. Retry with a fresh deadline.
	StatusDeadline byte = 3
	// StatusBusy means a transient internal condition (partition busy,
	// draining) prevented service. Retry after backoff.
	StatusBusy byte = 4
)

// Retryable reports whether a response status indicates a transient
// condition worth retrying, as opposed to a terminal error.
func Retryable(status byte) bool {
	return status == StatusShed || status == StatusDeadline || status == StatusBusy
}

// MaxData bounds a frame's variable part (a scan of MaxScanPages pages of
// the largest sane payload still fits). ReadRequest and ReadResponse check
// the claimed length against it before allocating, so a malicious or
// corrupt header cannot trigger an unbounded allocation.
const MaxData = 8 << 20

// MaxScanPages bounds one OpScan request.
const MaxScanPages = 1024

// reqHeader is the fixed request header size:
// op(1) page(8) n(4) deadline_ms(4) dlen(4).
const reqHeader = 21

// respHeader is the fixed response header size: status(1) dlen(4).
const respHeader = 5

// Request is one client frame.
// Wire: op(1) page(8) n(4) deadline_ms(4) dlen(4) data(dlen).
type Request struct {
	Op   byte
	Page int64
	N    int32 // OpScan page count
	// DeadlineMS is the server-side time budget in milliseconds; 0 means
	// no deadline. The server arms its read/write deadlines from it and
	// answers StatusDeadline when the budget runs out.
	DeadlineMS uint32
	Data       []byte

	// hdr is encode/decode scratch: a local array would escape through the
	// io interface, one allocation a frame.
	hdr [reqHeader]byte
}

// Response is one server frame.
// Wire: status(1) dlen(4) data(dlen).
type Response struct {
	Status byte
	Data   []byte

	hdr [respHeader]byte // encode/decode scratch, as in Request
}

// header checks r.Data against MaxData and encodes the fixed header into
// r's scratch.
func (r *Request) header() ([]byte, error) {
	if len(r.Data) > MaxData {
		return nil, fmt.Errorf("netproto: request data %d exceeds %d", len(r.Data), MaxData)
	}
	hdr := r.hdr[:]
	hdr[0] = r.Op
	binary.LittleEndian.PutUint64(hdr[1:9], uint64(r.Page))
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(r.N))
	binary.LittleEndian.PutUint32(hdr[13:17], r.DeadlineMS)
	binary.LittleEndian.PutUint32(hdr[17:21], uint32(len(r.Data)))
	return hdr, nil
}

// WriteRequest encodes r to w.
func WriteRequest(w io.Writer, r *Request) error {
	hdr, err := r.header()
	if err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(r.Data) > 0 {
		if _, err := w.Write(r.Data); err != nil {
			return err
		}
	}
	return nil
}

// ReadRequest decodes one frame from r into req, reusing req.Data's
// capacity. io.EOF comes back unchanged on a clean end of stream. The
// claimed data length is validated against MaxData before any allocation.
func ReadRequest(r io.Reader, req *Request) error {
	hdr := req.hdr[:]
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return err // io.EOF = clean close between frames
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return fmt.Errorf("netproto: short request header: %w", err)
	}
	req.Op = hdr[0]
	req.Page = int64(binary.LittleEndian.Uint64(hdr[1:9]))
	req.N = int32(binary.LittleEndian.Uint32(hdr[9:13]))
	req.DeadlineMS = binary.LittleEndian.Uint32(hdr[13:17])
	n := binary.LittleEndian.Uint32(hdr[17:21])
	if n > MaxData {
		return fmt.Errorf("netproto: request data %d exceeds %d", n, MaxData)
	}
	req.Data = grow(req.Data, int(n))
	if n > 0 {
		if _, err := io.ReadFull(r, req.Data); err != nil {
			return fmt.Errorf("netproto: short request data: %w", err)
		}
	}
	return nil
}

// WriteResponse encodes resp to w.
func WriteResponse(w io.Writer, resp *Response) error {
	if len(resp.Data) > MaxData {
		return fmt.Errorf("netproto: response data %d exceeds %d", len(resp.Data), MaxData)
	}
	hdr := resp.hdr[:]
	hdr[0] = resp.Status
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(resp.Data)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(resp.Data) > 0 {
		if _, err := w.Write(resp.Data); err != nil {
			return err
		}
	}
	return nil
}

// ReadResponse decodes one frame from r into resp, reusing resp.Data's
// capacity. The claimed data length is validated against MaxData before
// any allocation.
func ReadResponse(r io.Reader, resp *Response) error {
	hdr := resp.hdr[:]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("netproto: short response header: %w", err)
	}
	resp.Status = hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:5])
	if n > MaxData {
		return fmt.Errorf("netproto: response data %d exceeds %d", n, MaxData)
	}
	resp.Data = grow(resp.Data, int(n))
	if n > 0 {
		if _, err := io.ReadFull(r, resp.Data); err != nil {
			return fmt.Errorf("netproto: short response data: %w", err)
		}
	}
	return nil
}

// grow resizes b to n bytes, reallocating only when capacity is short.
func grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}
