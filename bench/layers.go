package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"turbobp/internal/device"
	"turbobp/internal/netproto"
	"turbobp/internal/wal"
)

// scaled shrinks a probe's size in -quick mode.
func scaled(n int) int {
	if quick {
		return max(n/50, 20)
	}
	return n
}

func sortedNS(ns []int64) []int64 {
	slices.Sort(ns)
	return ns
}

// netprotoProbe times the codec alone: a Get request and its 256-byte
// response, encoded into and decoded from memory.
func netprotoProbe(rep *report) error {
	n := scaled(200000)
	req := netproto.Request{Op: netproto.OpGet, Page: 12345, DeadlineMS: 2000}
	resp := netproto.Response{Status: netproto.StatusOK, Data: make([]byte, pageSize)}
	var reqFrame, respFrame, buf bytes.Buffer
	if err := netproto.WriteRequest(&reqFrame, &req); err != nil {
		return err
	}
	if err := netproto.WriteResponse(&respFrame, &resp); err != nil {
		return err
	}
	var rd bytes.Reader
	var gotReq netproto.Request
	var gotResp netproto.Response
	steps := []struct {
		name string
		fn   func() error
	}{
		{"netproto.encode_req_ns", func() error { buf.Reset(); return netproto.WriteRequest(&buf, &req) }},
		{"netproto.decode_req_ns", func() error { rd.Reset(reqFrame.Bytes()); return netproto.ReadRequest(&rd, &gotReq) }},
		{"netproto.encode_resp_ns", func() error { buf.Reset(); return netproto.WriteResponse(&buf, &resp) }},
		{"netproto.decode_resp_ns", func() error { rd.Reset(respFrame.Bytes()); return netproto.ReadResponse(&rd, &gotResp) }},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range steps {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := s.fn(); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
		rep.set(s.name, float64(time.Since(t0))/float64(n))
	}
	runtime.ReadMemStats(&after)
	rep.set("netproto.allocs_per_roundtrip", float64(after.Mallocs-before.Mallocs)/float64(n))
	if !bytes.Equal(gotResp.Data, resp.Data) || gotReq.Page != req.Page {
		return fmt.Errorf("netproto round trip altered the frame")
	}
	return nil
}

// liveServerProbes measures the floor under every request — an OpHealth
// round trip, which crosses the socket and the serve loop and nothing else —
// from as many connections at once as the workload had clients, so that the
// floor is taken under the same contention for cores as the workload's own
// round trips.
func liveServerProbes(rep *report, srv *server, clients int) {
	per := scaled(20000) / clients
	samples := make([][]int64, clients)
	failed := make([]int64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := netproto.Dial(netproto.ClientConfig{Addr: srv.addr, Deadline: requestDeadline, MaxRetries: 2})
			if err != nil {
				failed[c] = int64(per)
				return
			}
			defer cl.Close()
			for i := 0; i < per; i++ {
				t0 := time.Now()
				resp, err := cl.Do(&netproto.Request{Op: netproto.OpHealth})
				if err != nil || resp.Status != netproto.StatusOK {
					failed[c]++
					continue
				}
				samples[c] = append(samples[c], int64(time.Since(t0)))
			}
		}(c)
	}
	wg.Wait()
	var ns []int64
	for c := range samples {
		ns = append(ns, samples[c]...)
		rep.Failed += failed[c]
	}
	rep.Attempted += int64(per * clients)
	sortedNS(ns)
	rep.set("wire.health_rtt_p50_us", float64(percentile(ns, 0.50))/1e3)
	rep.set("wire.health_rtt_p99_us", float64(percentile(ns, 0.99))/1e3)
}

// probePages is the size of the probe file in 8 KB pages: 8 MB, because
// the driver caps the size of a file (see serve.go) somewhere above the
// 12 MB the Go build cache is seen to write under it.
const probePages = 1024

// deviceProbe times the sandbox's file system through device.File, on a
// file of the WAL's page size: positional write, write-then-fsync, and
// positional read. These are the page cache's and the sandbox's fsync, not
// a device's; no workload of this benchmark waits for either.
func deviceProbe(rep *report, path string) error {
	f, err := device.OpenFile(path, 8192, probePages)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer f.Close()
	page := make([]byte, 8192)
	for i := range page {
		page[i] = byte(i)
	}
	n := scaled(probePages)
	pwrite, fsync, pread := make([]int64, 0, n), make([]int64, 0, n/4), make([]int64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f.Preload(device.PageNum(i), page); err != nil {
			return err
		}
		pwrite = append(pwrite, int64(time.Since(t0)))
		if i%4 == 0 {
			t0 = time.Now()
			if err := f.Sync(); err != nil {
				return err
			}
			fsync = append(fsync, int64(time.Since(t0)))
		}
	}
	bufs := [][]byte{make([]byte, 8192)}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f.Read(nil, device.PageNum(i), bufs); err != nil {
			return err
		}
		pread = append(pread, int64(time.Since(t0)))
	}
	if !bytes.Equal(bufs[0], page) {
		return fmt.Errorf("device probe: page read back differs from page written")
	}
	rep.set("device.pwrite_p50_us", float64(percentile(sortedNS(pwrite), 0.50))/1e3)
	rep.set("device.pread_p50_us", float64(percentile(sortedNS(pread), 0.50))/1e3)
	rep.set("device.fsync_p50_us", float64(percentile(sortedNS(fsync), 0.50))/1e3)
	rep.set("device.fsync_p99_us", float64(percentile(fsync, 0.99))/1e3)

	// The group-commit door alone: one committer, so every flight waits out
	// the 500 µs door and then pays one fsync.
	gc := wal.NewGroupCommitter(f.Sync, 64, 500*time.Microsecond, false)
	alone := make([]int64, 0, n/8)
	for i := 0; i < n/8; i++ {
		if err := f.Preload(device.PageNum(i), page); err != nil {
			return err
		}
		t0 := time.Now()
		if err := gc.Commit(); err != nil {
			return err
		}
		alone = append(alone, int64(time.Since(t0)))
	}
	rep.set("wal.group_commit_alone_p50_us", float64(percentile(sortedNS(alone), 0.50))/1e3)
	return nil
}

// replayOps is the fixed number of operations the embedded replay times.
func replayOps(workload string) int {
	if workload == wlUpdateMix {
		return scaled(8000) // 2000 transactions
	}
	return scaled(200000)
}

// replay opens the bench's own database with the server's options and runs
// the workload's warm-up and then a fixed prefix of its op stream from one
// goroutine, timing each public call. One caller, a fixed op count and a
// virtual clock make the counts (hit ratios, device I/Os and simulated time
// per op) repeat exactly for a seed.
func replay(ctx context.Context, cfg config, rep *report) error {
	db, err := openDB()
	if err != nil {
		return err
	}
	defer db.Close()
	gen := newGenerator(cfg.workload, cfg.seed, 0, 1)
	buf := make([]byte, pageSize)
	var value [valueSize]byte
	seqs := map[int64]uint64{}
	do := func(o op) error {
		if o.kind == opGet {
			_, err := db.Read(o.a, buf)
			return err
		}
		tx := db.Begin()
		for _, pid := range [2]int64{o.a, o.b} {
			seqs[pid]++
			stamp(value[:], pid, seqs[pid], 0)
			if err := tx.Update(pid, func(p []byte) { copy(p, value[:]) }); err != nil {
				return err
			}
		}
		return tx.Commit()
	}
	for i := 0; i < warmupOps(cfg.workload); i++ {
		o := gen.next()
		if cfg.workload == wlReadHot {
			o = warmupOp(i, 0, 1)
		}
		if err := do(o); err != nil {
			return fmt.Errorf("embedded warm-up: %w", err)
		}
	}

	rec := newRecorder(time.Now(), replayOps(cfg.workload))
	before := db.Stats()
	last := before
	var hit, miss, txs []int64
	n := replayOps(cfg.workload)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		o := gen.next()
		rep.Attempted++
		name := spEmbRead
		if o.kind == opTx {
			name = spEmbCommit
		}
		id := rec.begin(name, 0)
		t0 := time.Now()
		err := do(o)
		d := int64(time.Since(t0))
		rec.end(id)
		if err != nil {
			rep.Failed++
			rep.note("embedded replay: %v", err)
			continue
		}
		if o.kind == opTx {
			txs = append(txs, d)
		} else {
			// Stats is read outside the timed call; a read that raised
			// PoolMisses went below the pool.
			s := db.Stats()
			if s.PoolMisses != last.PoolMisses {
				miss = append(miss, d)
			} else {
				hit = append(hit, d)
			}
			last = s
		}
	}
	after := db.Stats()

	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	ops := float64(n)
	rep.set("turbobp.read_hot_p50_ns", float64(percentile(sortedNS(hit), 0.50)))
	rep.set("turbobp.read_miss_p50_us", float64(percentile(sortedNS(miss), 0.50))/1e3)
	rep.set("turbobp.read_miss_p99_us", float64(percentile(miss, 0.99))/1e3)
	rep.set("turbobp.tx_commit_p50_us", float64(percentile(sortedNS(txs), 0.50))/1e3)
	rep.set("turbobp.virtual_us_per_op", float64((after.VirtualTime-before.VirtualTime).Microseconds())/ops)
	rep.set("bufpool.hit_ratio", ratio(after.PoolHits-before.PoolHits, after.PoolMisses-before.PoolMisses))
	rep.set("ssd.hit_ratio", ratio(after.SSDHits-before.SSDHits, after.SSDMisses-before.SSDMisses))
	rep.set("ssd.dirty_frames_end", float64(after.SSDDirty))
	rep.set("ssd.occupied_frames_end", float64(after.SSDOccupied))
	rep.set("device.disk_reads_per_op", float64(after.DiskReads-before.DiskReads)/ops)
	rep.set("device.disk_writes_per_op", float64(after.DiskWrites-before.DiskWrites)/ops)
	rep.set("device.ssd_reads_per_op", float64(after.SSDReads-before.SSDReads)/ops)
	rep.set("device.ssd_writes_per_op", float64(after.SSDWrites-before.SSDWrites)/ops)
	rep.note("embedded replay: %d ops: %d pool-hit reads, %d miss reads, %d transactions", n, len(hit), len(miss), len(txs))
	if cfg.out != "" {
		path := filepath.Join(cfg.out, "trace-"+cfg.workload+"-embedded.jsonl")
		if err := writeSpans(path, []*recorder{rec}); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}
