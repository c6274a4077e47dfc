package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"turbobp"
	"turbobp/internal/netproto"
)

// serve is the page server the wire workloads talk to: this binary again,
// started with -serve. It speaks cmd/bpeserve's protocol and session rules —
// netproto frames over TCP, one goroutine per connection, updates gathered
// in the connection's transaction until a commit seals it — in front of a
// turbobp.DB on the simulated backend.
//
// It is not cmd/bpeserve because the driver runs the benchmark under a file
// size limit, and turbobp's file backend, the only one bpeserve opens,
// creates its log as an 8 GiB sparse file (walPagesTotal in concurrent.go):
// there bpeserve exits before it listens. The simulated backend keeps pages
// in memory and charges device time to a virtual clock, so a request costs
// the wall-clock time of the code it runs — codec, socket, facade, sim
// kernel hand-off, engine, pool, SSD manager, WAL — and no device wait.
func serve(addr string) int {
	db, err := openDB()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -serve:", err)
		return 1
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -serve:", err)
		return 1
	}
	// serverLifetime is the dead-man's switch: should the bench be
	// SIGKILLed, no handler of its runs, and the server still exits on its own.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case <-stop:
		case <-time.After(serverLifetime):
		}
		ln.Close()
	}()
	var begin sync.Mutex // Tx ids come from a counter DB.Begin does not lock
	for {
		conn, err := ln.Accept()
		if err != nil {
			break
		}
		go serveConn(conn, db, &begin)
	}
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "bench -serve:", err)
		return 1
	}
	return 0
}

// openDB opens the database every workload runs against, in the server and
// in the embedded replay alike.
func openDB() (*turbobp.DB, error) {
	return turbobp.Open(turbobp.Options{
		Design: turbobp.LC, Policy: turbobp.PolicyLRU2,
		DBPages: dbPages, PoolPages: poolPages, SSDFrames: ssdFrames, PageSize: pageSize,
	})
}

func serveConn(conn net.Conn, db *turbobp.DB, begin *sync.Mutex) {
	defer conn.Close()
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	var (
		req  netproto.Request
		resp netproto.Response
		tx   *turbobp.Tx
		buf  = make([]byte, pageSize)
	)
	for {
		if netproto.ReadRequest(br, &req) != nil {
			return // end of stream or a framing error: the session is over
		}
		var err error
		resp.Status, resp.Data = netproto.StatusOK, resp.Data[:0]
		switch req.Op {
		case netproto.OpGet:
			var n int
			if n, err = db.Read(req.Page, buf); err == nil {
				resp.Data = append(resp.Data, buf[:n]...)
			}
		case netproto.OpUpdate:
			if tx == nil {
				begin.Lock()
				tx = db.Begin()
				begin.Unlock()
			}
			data := append([]byte(nil), req.Data...) // the frame buffer is reused
			err = tx.Update(req.Page, func(payload []byte) { copy(payload, data) })
		case netproto.OpCommit:
			if tx != nil {
				err = tx.Commit()
				tx = nil
			}
		case netproto.OpHealth:
			resp.Data = append(resp.Data, "ok"...)
		default:
			err = fmt.Errorf("unknown op %d", req.Op)
		}
		if err != nil {
			resp.Status = netproto.StatusErr
			resp.Data = append(resp.Data[:0], err.Error()...)
		}
		if netproto.WriteResponse(bw, &resp) != nil || bw.Flush() != nil {
			return
		}
	}
}
