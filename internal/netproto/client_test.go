package netproto

import (
	"bufio"
	"bytes"
	"net"
	"testing"
)

// countingConn counts the Read and Write calls that reach the connection.
type countingConn struct {
	net.Conn
	reads, writes int
}

func (c *countingConn) Read(b []byte) (int, error)  { c.reads++; return c.Conn.Read(b) }
func (c *countingConn) Write(b []byte) (int, error) { c.writes++; return c.Conn.Write(b) }

// TestRoundTripOneWriteOneRead: a request with a payload leaves the client
// in one Write (header and data in one segment) and a response with a
// payload arrives in one Read; the frames themselves are unchanged.
func TestRoundTripOneWriteOneRead(t *testing.T) {
	near, far := net.Pipe()
	defer near.Close()
	payload := bytes.Repeat([]byte{0x5A}, 256)
	var got Request
	served := make(chan error, 1)
	go func() {
		defer far.Close()
		bw := bufio.NewWriter(far)
		for i := 0; i < 2; i++ {
			if err := ReadRequest(far, &got); err != nil {
				served <- err
				return
			}
			if err := WriteResponse(bw, &Response{Status: StatusOK, Data: got.Data}); err != nil {
				served <- err
				return
			}
			if err := bw.Flush(); err != nil {
				served <- err
				return
			}
		}
		served <- nil
	}()
	conn := &countingConn{Conn: near}
	c := &Client{conn: conn, br: bufio.NewReader(conn)}
	for i := 0; i < 2; i++ { // the second trip runs on the reused buffers
		resp, err := c.roundTrip(&Request{Op: OpUpdate, Page: int64(i), Data: payload})
		if err != nil {
			t.Fatalf("roundTrip %d: %v", i, err)
		}
		if resp.Status != StatusOK || !bytes.Equal(resp.Data, payload) {
			t.Fatalf("roundTrip %d: status %d, %d bytes back", i, resp.Status, len(resp.Data))
		}
	}
	if err := <-served; err != nil {
		t.Fatalf("server side: %v", err)
	}
	if got.Op != OpUpdate || got.Page != 1 || !bytes.Equal(got.Data, payload) {
		t.Fatalf("server decoded %+v", got)
	}
	if conn.writes != 2 || conn.reads != 2 {
		t.Fatalf("2 round trips took %d writes and %d reads, want 2 and 2", conn.writes, conn.reads)
	}
}

// TestCodecAllocations: encoding and decoding a frame allocates nothing once
// the destination's Data has its capacity (the header scratch lives in the
// frame structs).
func TestCodecAllocations(t *testing.T) {
	req := Request{Op: OpGet, Page: 12345, DeadlineMS: 2000}
	resp := Response{Status: StatusOK, Data: make([]byte, 256)}
	var reqFrame, respFrame, buf bytes.Buffer
	WriteRequest(&reqFrame, &req)
	WriteResponse(&respFrame, &resp)
	var rd bytes.Reader
	var gotReq Request
	gotResp := Response{Data: make([]byte, 0, 256)}
	allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		WriteRequest(&buf, &req)
		rd.Reset(reqFrame.Bytes())
		ReadRequest(&rd, &gotReq)
		buf.Reset()
		WriteResponse(&buf, &resp)
		rd.Reset(respFrame.Bytes())
		ReadResponse(&rd, &gotResp)
	})
	if allocs != 0 || gotReq.Page != req.Page || !bytes.Equal(gotResp.Data, resp.Data) {
		t.Fatalf("%.0f allocations per round trip (want 0); decoded page %d, %d response bytes", allocs, gotReq.Page, len(gotResp.Data))
	}
}
