// Command bpeserve exposes a file-backed turbobp database over TCP: the
// netproto get/update/commit/scan operations served from the partitioned
// concurrent backend with WAL group commit. It exists to prove the
// concurrency and fault-tolerance work over a real network hop — drive it
// with cmd/bpeload.
//
// Usage:
//
//	bpeserve -addr :7070 -pages 65536 -concurrency 4 -commit-sync group
//
// The service layer is fault tolerant (see docs/FAILURES.md):
//
//   - Requests carrying a deadline are answered StatusDeadline when the
//     budget expires before execution starts, and the response write is
//     bounded by the same budget via SetWriteDeadline.
//   - Admission control sheds (StatusShed) when concurrent in-flight
//     requests exceed -max-inflight or a connection's buffered transaction
//     or scan would exceed -max-request-bytes.
//   - SIGINT/SIGTERM starts a graceful drain: the listener closes, idle
//     connection reads are interrupted, in-flight requests finish, and any
//     connection still open after -drain is force-closed. The database then
//     closes with a final WAL group flush.
//   - -open-existing reattaches to a previous run's -dir, replaying the
//     per-partition WALs and resolving in-doubt cross-partition commits.
//
// -pprof ADDR serves net/http/pprof's profiles (heap, CPU, goroutines, ...)
// on a listener of its own, apart from the database protocol; it is off by
// default. go tool pprof http://ADDR/debug/pprof/heap reads the live heap.
//
// The server prints a summary on exit: operations served, sheds, deadline
// misses, latched-read and group-commit counters.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"turbobp"
	"turbobp/internal/netproto"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bpeserve:", err)
		os.Exit(1)
	}
}

// openDataDir returns the data directory to open and what removes it at
// exit. An empty dir is a fresh temporary directory, removed at exit. A new
// database's dir is created with its parents; a directory to reattach to
// (openExisting) must already exist.
func openDataDir(dir string, openExisting bool) (string, func(), error) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "bpeserve-*")
		return tmp, func() { os.RemoveAll(tmp) }, err
	}
	if !openExisting {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", nil, err
		}
	}
	return dir, func() {}, nil
}

func run() error {
	var (
		addr         = flag.String("addr", "127.0.0.1:7070", "listen address")
		dir          = flag.String("dir", "", "data directory, created if missing (default: a fresh temp dir)")
		openExisting = flag.Bool("open-existing", false, "reattach to an existing -dir: recover WALs instead of formatting")
		pages        = flag.Int64("pages", 65536, "database size in pages")
		pool         = flag.Int("pool", 4096, "buffer pool frames")
		ssdFrames    = flag.Int("ssd", 16384, "SSD cache frames (0 disables)")
		pageSize     = flag.Int("page-size", 256, "payload bytes per page")
		design       = flag.String("design", "lc", "SSD design: nossd, cw, dw, lc, tac")
		cachePol     = flag.String("policy", "lru2", "the memory pool's policy: lru2 or cflru (the SSD tier is LRU-2 either way)")
		concurrency  = flag.Int("concurrency", runtime.GOMAXPROCS(0), "page-range partitions (0 or 1: one partition, same durability and transactions)")
		commitSync   = flag.String("commit-sync", "group", "commit durability: none, each, group")
		duration     = flag.Duration("duration", 0, "exit after this long (0 = until signal)")
		maxInflight  = flag.Int64("max-inflight", 256, "shed when this many requests are in flight (0 = unlimited)")
		maxConnBytes = flag.Int("max-request-bytes", 4<<20, "shed when a connection's buffered tx or scan exceeds this (0 = unlimited)")
		drainBound   = flag.Duration("drain", 5*time.Second, "graceful-drain bound after the stop signal")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (empty: off)")
	)
	flag.Parse()

	d, err := designOf(*design)
	if err != nil {
		return err
	}
	pol, err := turbobp.ParseCachePolicy(*cachePol)
	if err != nil {
		return err
	}
	mode, err := modeOf(*commitSync)
	if err != nil {
		return err
	}
	if *openExisting && *dir == "" {
		return fmt.Errorf("-open-existing requires -dir")
	}
	dataDir, cleanup, err := openDataDir(*dir, *openExisting)
	if err != nil {
		return err
	}
	defer cleanup()
	db, err := turbobp.Open(turbobp.Options{
		Design:       d,
		Policy:       pol,
		DBPages:      *pages,
		PoolPages:    *pool,
		SSDFrames:    *ssdFrames,
		PageSize:     *pageSize,
		Dir:          dataDir,
		OpenExisting: *openExisting,
		Concurrency:  *concurrency,
		CommitSync:   mode,
	})
	if err != nil {
		return err
	}

	if *pprofAddr != "" {
		at, stop, err := startPprof(*pprofAddr)
		if err != nil {
			db.Close()
			return err
		}
		defer stop()
		fmt.Printf("bpeserve: pprof on http://%s/debug/pprof/\n", at)
	}

	srv := &server{db: db, maxInflight: *maxInflight, maxConnBytes: *maxConnBytes}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		db.Close()
		return err
	}
	fmt.Printf("bpeserve: listening on %s (pages=%d design=%s policy=%s concurrency=%d commit-sync=%s existing=%v)\n",
		ln.Addr(), *pages, *design, pol, *concurrency, *commitSync, *openExisting)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		if *duration > 0 {
			select {
			case <-stop:
			case <-time.After(*duration):
			}
		} else {
			<-stop
		}
		srv.beginDrain()
		ln.Close()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if srv.draining.Load() {
				break
			}
			return err
		}
		srv.track(conn)
		srv.wg.Add(1)
		go srv.serve(conn)
	}

	// Drain: in-flight requests finish; connections still open past the
	// bound are force-closed so shutdown always terminates.
	done := make(chan struct{})
	go func() { srv.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(*drainBound):
		n := srv.closeAll()
		fmt.Printf("bpeserve: drain bound %s exceeded; force-closed %d connections\n", *drainBound, n)
		<-done
	}
	cerr := db.Close() // final WAL group flush + checkpoint

	s := db.Stats()
	fmt.Printf("bpeserve: served %d ops (%d reads, %d updates, %d commits, %d scans, %d sheds, %d deadline misses)\n",
		srv.ops.Load(), srv.reads.Load(), srv.updates.Load(), srv.commits.Load(), srv.scans.Load(),
		srv.sheds.Load(), srv.deadlined.Load())
	fmt.Printf("bpeserve: partitions=%d latched-reads=%d pool-hits=%d pool-misses=%d\n",
		s.Partitions, s.LatchedReads, s.PoolHits, s.PoolMisses)
	if s.SyncedCommits > 0 {
		fmt.Printf("bpeserve: group commit: %d fsyncs for %d commits (%.3f fsyncs/commit, max flight %d)\n",
			s.WALSyncs, s.SyncedCommits, float64(s.WALSyncs)/float64(s.SyncedCommits), s.MaxCommitFlight)
	}
	return cerr
}

// startPprof serves net/http/pprof's handlers on a listener of its own at
// addr. It returns the address it listens on and a stop function that
// closes the listener and every connection and returns once the server has
// exited.
func startPprof(addr string) (net.Addr, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("-pprof: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index) // the named profiles: heap, goroutine, allocs, ...
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hs := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		_ = hs.Serve(ln) // http.ErrServerClosed once stopped: nothing to report
		close(done)
	}()
	return ln.Addr(), func() {
		hs.Close()
		<-done
	}, nil
}

// server is the shared accept-loop state.
type server struct {
	db           *turbobp.DB
	wg           sync.WaitGroup
	draining     atomic.Bool
	maxInflight  int64         // 0 = unlimited
	maxConnBytes int           // 0 = unlimited
	slow         time.Duration // test hook: artificial delay before the deadline check

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	ops, reads, updates, commits, scans atomic.Int64
	inflight, sheds, deadlined          atomic.Int64
}

func (s *server) track(conn net.Conn) {
	s.mu.Lock()
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
}

func (s *server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// beginDrain flips the server into draining mode and interrupts every
// connection's idle read. Requests already buffered or in flight still get
// answered (with StatusBusy for data ops), so clients see a typed signal
// instead of a dropped connection where possible.
func (s *server) beginDrain() {
	s.draining.Store(true)
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
}

// closeAll force-closes every remaining connection and reports how many.
func (s *server) closeAll() int {
	s.mu.Lock()
	n := len(s.conns)
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return n
}

// serve runs one connection: a request/response loop over the netproto
// framing, with the connection's updates accumulating in one transaction
// until OpCommit. Data ops pass admission control (drain, in-flight limit,
// per-request deadline) before touching the database.
func (s *server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var (
		req     netproto.Request
		resp    netproto.Response
		tx      *turbobp.Tx
		txBytes int
		buf     = make([]byte, s.db.PageSize())
	)
	for {
		if err := netproto.ReadRequest(br, &req); err != nil {
			return // EOF, drain interrupt or a framing error; the session is over
		}
		var dl time.Time
		if req.DeadlineMS > 0 {
			dl = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
		}
		if s.slow > 0 {
			time.Sleep(s.slow)
		}
		resp.Status = netproto.StatusOK
		resp.Data = resp.Data[:0]

		switch req.Op {
		case netproto.OpHealth:
			s.handleHealth(&resp)
		case netproto.OpStats:
			s.handleStats(&resp)
		default:
			n := s.inflight.Add(1)
			switch {
			case s.draining.Load():
				resp.Status = netproto.StatusBusy
				resp.Data = append(resp.Data, "draining"...)
			case s.maxInflight > 0 && n > s.maxInflight:
				s.sheds.Add(1)
				resp.Status = netproto.StatusShed
				resp.Data = append(resp.Data, "overloaded"...)
			case !dl.IsZero() && time.Now().After(dl):
				// The budget expired while the request sat in socket or
				// scheduler queues; answer honestly instead of doing stale
				// work the client has given up on.
				s.deadlined.Add(1)
				resp.Status = netproto.StatusDeadline
				resp.Data = append(resp.Data, "deadline expired"...)
			default:
				s.exec(&req, &resp, &tx, &txBytes, buf)
			}
			s.inflight.Add(-1)
		}
		s.ops.Add(1)
		if !dl.IsZero() {
			conn.SetWriteDeadline(dl.Add(time.Second))
		}
		if err := netproto.WriteResponse(bw, &resp); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		if !dl.IsZero() {
			conn.SetWriteDeadline(time.Time{})
		}
	}
}

// exec runs one admitted data operation.
func (s *server) exec(req *netproto.Request, resp *netproto.Response, tx **turbobp.Tx, txBytes *int, buf []byte) {
	var err error
	switch req.Op {
	case netproto.OpGet:
		s.reads.Add(1)
		var n int
		n, err = s.db.Read(req.Page, buf)
		if err == nil {
			resp.Data = append(resp.Data, buf[:n]...)
		}
	case netproto.OpUpdate:
		s.updates.Add(1)
		if s.maxConnBytes > 0 && *txBytes+len(req.Data) > s.maxConnBytes {
			s.sheds.Add(1)
			resp.Status = netproto.StatusShed
			resp.Data = append(resp.Data, "transaction buffer over budget"...)
			return
		}
		if *tx == nil {
			*tx = s.db.Begin()
		}
		data := append([]byte(nil), req.Data...) // the frame buffer is reused
		*txBytes += len(data)
		err = (*tx).Update(req.Page, func(payload []byte) {
			copy(payload, data)
		})
	case netproto.OpCommit:
		s.commits.Add(1)
		if *tx != nil {
			err = (*tx).Commit()
			*tx = nil
			*txBytes = 0
		}
	case netproto.OpScan:
		s.scans.Add(1)
		if req.N < 0 || req.N > netproto.MaxScanPages {
			err = fmt.Errorf("scan of %d pages (max %d)", req.N, netproto.MaxScanPages)
			break
		}
		if s.maxConnBytes > 0 && int(req.N)*s.db.PageSize() > s.maxConnBytes {
			s.sheds.Add(1)
			resp.Status = netproto.StatusShed
			resp.Data = append(resp.Data, "scan over budget"...)
			return
		}
		err = s.db.Scan(req.Page, int(req.N), func(_ int64, payload []byte) error {
			resp.Data = append(resp.Data, payload...)
			return nil
		})
	default:
		err = fmt.Errorf("unknown op %d", req.Op)
	}
	if err != nil {
		resp.Status = netproto.StatusErr
		resp.Data = append(resp.Data[:0], err.Error()...)
	}
}

// handleHealth answers the liveness probe without touching the database:
// StatusOK while accepting work, a retryable status while draining or
// overloaded.
func (s *server) handleHealth(resp *netproto.Response) {
	switch {
	case s.draining.Load():
		resp.Status = netproto.StatusBusy
		resp.Data = append(resp.Data, "draining"...)
	case s.maxInflight > 0 && s.inflight.Load() >= s.maxInflight:
		resp.Status = netproto.StatusShed
		resp.Data = append(resp.Data, "overloaded"...)
	default:
		resp.Data = append(resp.Data, "ok"...)
	}
}

// handleStats answers with a human-readable counter snapshot.
func (s *server) handleStats(resp *netproto.Response) {
	resp.Data = fmt.Appendf(resp.Data,
		"ops=%d reads=%d updates=%d commits=%d scans=%d sheds=%d deadline_misses=%d inflight=%d draining=%v",
		s.ops.Load(), s.reads.Load(), s.updates.Load(), s.commits.Load(), s.scans.Load(),
		s.sheds.Load(), s.deadlined.Load(), s.inflight.Load(), s.draining.Load())
}

func designOf(s string) (turbobp.Design, error) {
	switch s {
	case "nossd":
		return turbobp.NoSSD, nil
	case "cw":
		return turbobp.CW, nil
	case "dw":
		return turbobp.DW, nil
	case "lc":
		return turbobp.LC, nil
	case "tac":
		return turbobp.TAC, nil
	}
	return 0, fmt.Errorf("unknown design %q", s)
}

func modeOf(s string) (turbobp.CommitSyncMode, error) {
	switch s {
	case "none":
		return turbobp.CommitSyncNone, nil
	case "each":
		return turbobp.CommitSyncEach, nil
	case "group":
		return turbobp.CommitSyncGroup, nil
	}
	return 0, fmt.Errorf("unknown commit-sync mode %q", s)
}
