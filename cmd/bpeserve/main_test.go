package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"turbobp"
	"turbobp/internal/netproto"
)

// startTestServer runs the serve loop on an ephemeral port over a
// partitioned DB and returns its address.
func startTestServer(t *testing.T) string {
	t.Helper()
	addr, _ := startTestServerWith(t, nil)
	return addr
}

// startTestServerWith is startTestServer with a config hook on the server
// before it starts accepting; it also returns the server for direct poking.
func startTestServerWith(t *testing.T, mut func(*server)) (string, *server) {
	t.Helper()
	db, err := turbobp.Open(turbobp.Options{
		Design:      turbobp.LC,
		DBPages:     512,
		PoolPages:   64,
		SSDFrames:   128,
		PageSize:    64,
		Dir:         t.TempDir(),
		Concurrency: 2,
		CommitSync:  turbobp.CommitSyncGroup,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := &server{db: db}
	if mut != nil {
		mut(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			srv.track(conn)
			srv.wg.Add(1)
			go srv.serve(conn)
		}
	}()
	t.Cleanup(func() {
		srv.beginDrain()
		ln.Close()
		srv.closeAll()
		srv.wg.Wait()
		db.Close()
	})
	return ln.Addr().String(), srv
}

type testClient struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	resp netproto.Response
}

func dialTest(t *testing.T, addr string) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &testClient{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
}

func (c *testClient) call(t *testing.T, req netproto.Request) *netproto.Response {
	t.Helper()
	if err := netproto.WriteRequest(c.bw, &req); err != nil {
		t.Fatalf("WriteRequest: %v", err)
	}
	if err := c.bw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := netproto.ReadResponse(c.br, &c.resp); err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	return &c.resp
}

// TestServerRoundTrip drives get/update/commit/scan through the real TCP
// stack and checks the data paths end to end.
func TestServerRoundTrip(t *testing.T) {
	addr := startTestServer(t)
	c := dialTest(t, addr)

	// A fresh page reads back zero-filled.
	resp := c.call(t, netproto.Request{Op: netproto.OpGet, Page: 3})
	if resp.Status != netproto.StatusOK || len(resp.Data) != 64 {
		t.Fatalf("get: status=%d len=%d", resp.Status, len(resp.Data))
	}

	// Update two pages in one transaction (they land in different
	// partitions: 512 pages over 2 partitions splits at 256), commit, read
	// both back.
	want3 := bytes.Repeat([]byte{0xAB}, 8)
	want400 := bytes.Repeat([]byte{0xCD}, 8)
	if resp = c.call(t, netproto.Request{Op: netproto.OpUpdate, Page: 3, Data: want3}); resp.Status != netproto.StatusOK {
		t.Fatalf("update 3: %s", resp.Data)
	}
	if resp = c.call(t, netproto.Request{Op: netproto.OpUpdate, Page: 400, Data: want400}); resp.Status != netproto.StatusOK {
		t.Fatalf("update 400: %s", resp.Data)
	}
	if resp = c.call(t, netproto.Request{Op: netproto.OpCommit}); resp.Status != netproto.StatusOK {
		t.Fatalf("commit: %s", resp.Data)
	}
	if resp = c.call(t, netproto.Request{Op: netproto.OpGet, Page: 3}); !bytes.Equal(resp.Data[:8], want3) {
		t.Fatalf("page 3 = % x", resp.Data[:8])
	}
	if resp = c.call(t, netproto.Request{Op: netproto.OpGet, Page: 400}); !bytes.Equal(resp.Data[:8], want400) {
		t.Fatalf("page 400 = % x", resp.Data[:8])
	}

	// Scan across the partition boundary: 4 pages from 254.
	resp = c.call(t, netproto.Request{Op: netproto.OpScan, Page: 254, N: 4})
	if resp.Status != netproto.StatusOK || len(resp.Data) != 4*64 {
		t.Fatalf("scan: status=%d len=%d", resp.Status, len(resp.Data))
	}

	// Errors come back as StatusErr, not dropped connections.
	if resp = c.call(t, netproto.Request{Op: netproto.OpGet, Page: 1 << 40}); resp.Status != netproto.StatusErr {
		t.Fatal("out-of-range get succeeded")
	}
	if resp = c.call(t, netproto.Request{Op: 99}); resp.Status != netproto.StatusErr {
		t.Fatal("unknown op succeeded")
	}
	// The connection still works after an error.
	if resp = c.call(t, netproto.Request{Op: netproto.OpGet, Page: 0}); resp.Status != netproto.StatusOK {
		t.Fatalf("get after error: %s", resp.Data)
	}
}

// TestServerConcurrentClients hammers the server from several connections
// at once; under -race this covers the full network + partition + group
// commit stack.
func TestServerConcurrentClients(t *testing.T) {
	addr := startTestServer(t)
	const clients = 6
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer conn.Close()
			br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
			var resp netproto.Response
			val := []byte{byte(i), byte(i), byte(i), byte(i)}
			for op := 0; op < 60; op++ {
				pid := int64((i*97 + op*13) % 512)
				var req netproto.Request
				switch op % 3 {
				case 0:
					req = netproto.Request{Op: netproto.OpGet, Page: pid}
				case 1:
					req = netproto.Request{Op: netproto.OpUpdate, Page: pid, Data: val}
				case 2:
					req = netproto.Request{Op: netproto.OpCommit}
				}
				if err := netproto.WriteRequest(bw, &req); err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				if err := bw.Flush(); err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				if err := netproto.ReadResponse(br, &resp); err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				if resp.Status != netproto.StatusOK {
					t.Errorf("client %d op %d: %s", i, op, resp.Data)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestServerHealthAndStats pins the probe ops: health answers ok without
// touching the database, stats reports the counters.
func TestServerHealthAndStats(t *testing.T) {
	addr := startTestServer(t)
	c := dialTest(t, addr)
	resp := c.call(t, netproto.Request{Op: netproto.OpHealth})
	if resp.Status != netproto.StatusOK || string(resp.Data) != "ok" {
		t.Fatalf("health: status=%d data=%s", resp.Status, resp.Data)
	}
	c.call(t, netproto.Request{Op: netproto.OpGet, Page: 1})
	resp = c.call(t, netproto.Request{Op: netproto.OpStats})
	if resp.Status != netproto.StatusOK || !strings.Contains(string(resp.Data), "reads=1") {
		t.Fatalf("stats: status=%d data=%s", resp.Status, resp.Data)
	}
}

// TestServerDeadlineExpired pins deadline enforcement: a request whose
// budget has already run out by the time the server gets to it is answered
// StatusDeadline without executing.
func TestServerDeadlineExpired(t *testing.T) {
	addr, srv := startTestServerWith(t, func(s *server) { s.slow = 20 * time.Millisecond })
	c := dialTest(t, addr)
	resp := c.call(t, netproto.Request{Op: netproto.OpGet, Page: 1, DeadlineMS: 1})
	if resp.Status != netproto.StatusDeadline {
		t.Fatalf("status = %d (%s), want StatusDeadline", resp.Status, resp.Data)
	}
	if srv.reads.Load() != 0 {
		t.Fatal("expired request was executed anyway")
	}
	// A fresh budget on the same connection succeeds.
	if resp = c.call(t, netproto.Request{Op: netproto.OpGet, Page: 1, DeadlineMS: 5000}); resp.Status != netproto.StatusOK {
		t.Fatalf("after expiry: status=%d %s", resp.Status, resp.Data)
	}
}

// TestServerShedsOverBudgetTx pins per-connection memory admission: updates
// past -max-request-bytes are shed with a retryable status, and a commit
// resets the budget.
func TestServerShedsOverBudgetTx(t *testing.T) {
	addr, srv := startTestServerWith(t, func(s *server) { s.maxConnBytes = 128 })
	c := dialTest(t, addr)
	payload := bytes.Repeat([]byte{0x7E}, 64)
	for i := 0; i < 2; i++ {
		if resp := c.call(t, netproto.Request{Op: netproto.OpUpdate, Page: int64(i), Data: payload}); resp.Status != netproto.StatusOK {
			t.Fatalf("update %d: status=%d %s", i, resp.Status, resp.Data)
		}
	}
	resp := c.call(t, netproto.Request{Op: netproto.OpUpdate, Page: 2, Data: payload})
	if resp.Status != netproto.StatusShed {
		t.Fatalf("over-budget update: status=%d, want StatusShed", resp.Status)
	}
	if !netproto.Retryable(resp.Status) {
		t.Fatal("shed status not retryable")
	}
	if srv.sheds.Load() == 0 {
		t.Fatal("shed not counted")
	}
	if resp = c.call(t, netproto.Request{Op: netproto.OpCommit}); resp.Status != netproto.StatusOK {
		t.Fatalf("commit: %s", resp.Data)
	}
	// Budget reset: the same update now passes.
	if resp = c.call(t, netproto.Request{Op: netproto.OpUpdate, Page: 2, Data: payload}); resp.Status != netproto.StatusOK {
		t.Fatalf("post-commit update: status=%d %s", resp.Status, resp.Data)
	}
	// Oversized scans are shed too.
	if resp = c.call(t, netproto.Request{Op: netproto.OpScan, Page: 0, N: 100}); resp.Status != netproto.StatusShed {
		t.Fatalf("over-budget scan: status=%d, want StatusShed", resp.Status)
	}
}

// TestServerDrainStatus pins the typed drain signal: while draining, data
// ops and health probes answer StatusBusy instead of dropping.
func TestServerDrainStatus(t *testing.T) {
	addr, srv := startTestServerWith(t, nil)
	c := dialTest(t, addr)
	srv.draining.Store(true)
	resp := c.call(t, netproto.Request{Op: netproto.OpGet, Page: 0})
	if resp.Status != netproto.StatusBusy {
		t.Fatalf("get while draining: status=%d, want StatusBusy", resp.Status)
	}
	if resp = c.call(t, netproto.Request{Op: netproto.OpHealth}); resp.Status != netproto.StatusBusy {
		t.Fatalf("health while draining: status=%d, want StatusBusy", resp.Status)
	}
}

// TestServerDrainInterruptsIdle pins the drain bound: connections blocked in
// an idle read wake up and the serve loops exit promptly.
func TestServerDrainInterruptsIdle(t *testing.T) {
	addr, srv := startTestServerWith(t, nil)
	dialTest(t, addr) // idle connection, blocked in ReadRequest
	time.Sleep(20 * time.Millisecond)
	srv.beginDrain()
	done := make(chan struct{})
	go func() { srv.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("drain did not interrupt the idle connection")
	}
}

// TestServerMalformedFrames pins service-level robustness: garbage and
// oversized frames close that connection with no panic, and the server
// keeps serving new connections.
func TestServerMalformedFrames(t *testing.T) {
	addr := startTestServer(t)

	// Oversized dlen: header claims ~4GB of data.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	hdr := make([]byte, 21)
	hdr[0] = netproto.OpUpdate
	binary.LittleEndian.PutUint32(hdr[17:21], 0xFFFFFFF0)
	conn.Write(hdr)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered an oversized frame instead of closing")
	}
	conn.Close()

	// Pure garbage.
	conn, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	conn.Write(bytes.Repeat([]byte{0xFF}, 64))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	io.Copy(io.Discard, conn) // must terminate: server closes
	conn.Close()

	// The server is still healthy.
	c := dialTest(t, addr)
	if resp := c.call(t, netproto.Request{Op: netproto.OpHealth}); resp.Status != netproto.StatusOK {
		t.Fatalf("health after malformed frames: status=%d", resp.Status)
	}
}

// TestClientAgainstServer drives the reusable netproto.Client end to end:
// deadline stamping, Get, Health and ServerStats against a live server.
func TestClientAgainstServer(t *testing.T) {
	addr := startTestServer(t)
	cl, err := netproto.Dial(netproto.ClientConfig{Addr: addr, Deadline: 2 * time.Second, Seed: 7})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	ok, err := cl.Health()
	if err != nil || !ok {
		t.Fatalf("Health = %v, %v", ok, err)
	}
	if _, err := cl.Get(5); err != nil {
		t.Fatalf("Get: %v", err)
	}
	stats, err := cl.ServerStats()
	if err != nil || !strings.Contains(stats, "reads=1") {
		t.Fatalf("ServerStats = %q, %v", stats, err)
	}
	if got := cl.Stats(); got.Ops != 2 || got.Reconnects != 0 {
		t.Fatalf("client stats = %+v", got)
	}
}

func TestPprofServesHeapProfile(t *testing.T) {
	at, stop, err := startPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + at.String() + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "heap profile:") {
		t.Fatalf("GET /debug/pprof/heap: %s, body starts %.80q", resp.Status, body)
	}
}

// TestOpenDataDirCreatesNestedPath: -dir naming a path that does not exist
// yet is created with its parents, and a database opens there; with
// -open-existing a missing directory is an error, not a fresh database.
func TestOpenDataDirCreatesNestedPath(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "new", "nested")
	if _, _, err := openDataDir(dir, true); err != nil {
		t.Fatal(err)
	}
	if _, err := turbobp.Open(turbobp.Options{Dir: dir, DBPages: 64, PoolPages: 16, OpenExisting: true}); err == nil {
		t.Fatal("OpenExisting on a missing -dir succeeded")
	}
	got, cleanup, err := openDataDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	db, err := turbobp.Open(turbobp.Options{Dir: got, DBPages: 64, PoolPages: 16})
	if err != nil {
		t.Fatalf("Open on a fresh nested -dir: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
