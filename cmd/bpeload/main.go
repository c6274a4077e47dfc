// Command bpeload drives a bpeserve instance with concurrent readers and
// writers over TCP and reports throughput, latency quantiles, and what the
// fault-tolerance machinery did (retries, sheds, deadline misses,
// reconnects). Each worker owns one netproto.Client — per-request
// deadlines, bounded reconnect, jittered backoff — so the benchmark
// survives shedding and restarts instead of dying on the first hiccup.
//
// Correctness is checked, not assumed. Writers own disjoint page ranges
// and stamp every page with a self-describing header (seq, writer id, crc;
// see internal/loadbench); readers classify every page they fetch, and a
// final verification pass re-reads every written page and fails the run —
// nonzero exit — if an acknowledged commit is lost, a page reads back
// corrupt, or a never-sent sequence appears.
//
// Usage:
//
//	bpeload -addr 127.0.0.1:7070 -readers 6 -writers 2 -value-size 64 -duration 10s
//
// Chaos mode wraps the kill -9 harness instead of an external server:
//
//	bpeload -chaos 3 -server-bin ./bpeserve -dir /tmp/chaosdir -cycle 1s
//
// spawns bpeserve itself, kill -9s it mid-load for each cycle, restarts it
// with -open-existing, re-verifies every acked commit, and exits nonzero
// if any violation is found.
//
// Oversubscription is reported honestly: the summary includes the
// effective hardware parallelism (min(workers, GOMAXPROCS), via
// internal/harness.EffectiveWorkers) next to the requested worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"turbobp/internal/harness"
	"turbobp/internal/loadbench"
	"turbobp/internal/metrics"
	"turbobp/internal/netproto"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bpeload:", err)
		os.Exit(1)
	}
}

// run parses args, drives the load and writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bpeload", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7070", "server address")
		readers   = fs.Int("readers", 4, "reader workers (one connection each)")
		writers   = fs.Int("writers", 4, "writer workers (one connection each)")
		valueSize = fs.Int("value-size", 64, "bytes written per update (>= 16 for the stamp)")
		duration  = fs.Duration("duration", 10*time.Second, "run length")
		pages     = fs.Int64("pages", 65536, "page id space to draw from")
		scanEvery = fs.Int("scan-every", 0, "every Nth read op is a 16-page scan (0 disables)")
		seed      = fs.Int64("seed", 1, "workload RNG seed")
		deadline  = fs.Duration("deadline", 2*time.Second, "per-request deadline (0 disables)")
		cachePol  = fs.String("policy", "", "server cache policy label for the summary (informational)")

		chaos     = fs.Int("chaos", 0, "run N kill-9/restart chaos cycles instead of a plain benchmark")
		serverBin = fs.String("server-bin", "", "bpeserve binary for -chaos mode")
		chaosDir  = fs.String("dir", "", "data directory for -chaos mode (shared across restarts)")
		cycleLen  = fs.Duration("cycle", time.Second, "load duration per -chaos cycle")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2

	if *chaos > 0 {
		return runChaos(stdout, *chaos, *serverBin, *chaosDir, *cycleLen, *seed)
	}
	if *readers < 0 || *writers < 0 || *readers+*writers == 0 {
		return fmt.Errorf("need at least one worker (readers=%d writers=%d)", *readers, *writers)
	}
	if *valueSize < loadbench.StampLen {
		return fmt.Errorf("value-size %d below stamp length %d", *valueSize, loadbench.StampLen)
	}

	// Writers own disjoint page ranges so every page has exactly one legal
	// stamp owner; readers draw from the writer-owned space when there are
	// writers, the whole space otherwise.
	perWriter := int64(0)
	if *writers > 0 {
		perWriter = *pages / int64(*writers)
		if perWriter == 0 {
			return fmt.Errorf("pages %d below writer count %d", *pages, *writers)
		}
	}

	total := *readers + *writers
	results := make([]workerResult, total)
	start := time.Now()
	end := start.Add(*duration)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := worker{
				cfg: netproto.ClientConfig{
					Addr:     *addr,
					Deadline: *deadline,
					Seed:     uint64(*seed) + uint64(i)*0x9E37,
				},
				valueSize: *valueSize,
				pages:     *pages,
				perWriter: perWriter,
				writers:   *writers,
				scanEvery: *scanEvery,
				end:       end,
				rng:       rand.New(rand.NewSource(*seed + int64(i))),
			}
			if i >= *readers {
				w.writer = i - *readers // writer id 0..writers-1
			} else {
				w.writer = -1
			}
			results[i] = w.run()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var readHist, writeHist metrics.Histogram
	var reads, writes, scans, errs, verifyFails int64
	var cs netproto.ClientStats
	tracks := make(map[int64]*pageSeq)
	for i, r := range results {
		if r.err != nil {
			errs++
			fmt.Fprintf(os.Stderr, "bpeload: worker %d: %v\n", i, r.err)
		}
		readHist.Merge(&r.read)
		writeHist.Merge(&r.write)
		reads += r.read.Count()
		writes += r.write.Count()
		scans += r.scans
		verifyFails += r.verifyFails
		cs.Retries += r.stats.Retries
		cs.Sheds += r.stats.Sheds
		cs.Deadlines += r.stats.Deadlines
		cs.Busy += r.stats.Busy
		cs.Reconnects += r.stats.Reconnects
		for pid, s := range r.tracks {
			tracks[pid] = s
		}
	}
	ops := reads + writes
	if errs == int64(total) {
		return fmt.Errorf("every worker failed")
	}

	fmt.Fprintf(stdout, "bpeload: %d readers + %d writers for %v against %s\n", *readers, *writers, elapsed.Round(time.Millisecond), *addr)
	if *cachePol != "" {
		fmt.Fprintf(stdout, "bpeload: server cache policy %s (as labelled by -policy)\n", *cachePol)
	}
	fmt.Fprintf(stdout, "bpeload: effective parallelism %d of %d workers (GOMAXPROCS=%d)\n",
		harness.EffectiveWorkers(total), total, runtime.GOMAXPROCS(0))
	secs := elapsed.Seconds()
	fmt.Fprintf(stdout, "total: %d ops, %.0f ops/s\n", ops, float64(ops)/secs)
	if reads > 0 {
		fmt.Fprintf(stdout, "reads: %d (%.0f ops/s, %d scans) p50=%v p95=%v p99=%v\n",
			reads, float64(reads)/secs, scans,
			readHist.Quantile(0.50).Round(time.Microsecond),
			readHist.Quantile(0.95).Round(time.Microsecond),
			readHist.Quantile(0.99).Round(time.Microsecond))
	}
	if writes > 0 {
		fmt.Fprintf(stdout, "writes: %d (%.0f ops/s) p50=%v p95=%v p99=%v\n",
			writes, float64(writes)/secs,
			writeHist.Quantile(0.50).Round(time.Microsecond),
			writeHist.Quantile(0.95).Round(time.Microsecond),
			writeHist.Quantile(0.99).Round(time.Microsecond))
	}
	fmt.Fprintf(stdout, "faults: %d retries, %d sheds, %d deadline misses, %d busy, %d reconnects\n",
		cs.Retries, cs.Sheds, cs.Deadlines, cs.Busy, cs.Reconnects)

	// Final verification pass: every page an acked commit touched must read
	// back intact at or above its acked seq, and never above what was sent.
	lost, corrupt, phantom := int64(0), int64(0), int64(0)
	if len(tracks) > 0 {
		cl, err := netproto.Dial(netproto.ClientConfig{Addr: *addr, Deadline: 5 * time.Second, Seed: uint64(*seed) + 77})
		if err != nil {
			return fmt.Errorf("verification dial: %w", err)
		}
		defer cl.Close()
		for pid, s := range tracks {
			data, err := cl.Get(pid)
			if err != nil {
				return fmt.Errorf("verification read page %d: %w", pid, err)
			}
			seq, wr, st := loadbench.CheckPage(data, pid)
			switch st {
			case loadbench.PageCorrupt:
				corrupt++
				fmt.Fprintf(os.Stderr, "bpeload: page %d corrupt\n", pid)
			case loadbench.PageUnwritten:
				if s.acked > 0 {
					lost++
					fmt.Fprintf(os.Stderr, "bpeload: page %d lost acked seq %d (unwritten)\n", pid, s.acked)
				}
			case loadbench.PageOK:
				if wr != s.owner {
					corrupt++
					fmt.Fprintf(os.Stderr, "bpeload: page %d stamped by writer %d, owned by %d\n", pid, wr, s.owner)
				}
				if seq < s.acked {
					lost++
					fmt.Fprintf(os.Stderr, "bpeload: page %d at seq %d below acked %d\n", pid, seq, s.acked)
				}
				if seq > s.maxSent {
					phantom++
					fmt.Fprintf(os.Stderr, "bpeload: page %d at seq %d beyond anything sent (%d)\n", pid, seq, s.maxSent)
				}
			}
		}
		fmt.Fprintf(stdout, "verify: %d pages checked, %d lost, %d corrupt, %d phantom, %d inline failures\n",
			len(tracks), lost, corrupt, phantom, verifyFails)
	}
	if bad := lost + corrupt + phantom + verifyFails; bad > 0 {
		return fmt.Errorf("verification failed: %d violations", bad)
	}
	return nil
}

// runChaos is -chaos mode: hand everything to the loadbench harness, which
// owns the server process lifecycle, and mirror its verdict in the exit
// status.
func runChaos(stdout io.Writer, cycles int, serverBin, dir string, cycleLen time.Duration, seed int64) error {
	if serverBin == "" || dir == "" {
		return fmt.Errorf("-chaos needs -server-bin and -dir")
	}
	rep, err := loadbench.RunChaos(loadbench.ChaosConfig{
		ServerBin: serverBin,
		Dir:       dir,
		Cycles:    cycles,
		CycleLen:  cycleLen,
		Seed:      seed,
		Log:       stdout,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, rep)
	if rep.Failed() {
		return fmt.Errorf("chaos verification failed")
	}
	return nil
}

// pageSeq is one page's durability floor and ceiling as its owning writer
// saw them.
type pageSeq struct {
	owner   uint32
	acked   uint64 // last seq whose commit the server acknowledged
	maxSent uint64 // last seq ever sent
}

// workerResult carries one worker's measurements back to the aggregator.
type workerResult struct {
	read        metrics.Histogram // point gets and scans
	write       metrics.Histogram // stamped tx round trips
	scans       int64
	verifyFails int64 // inline check failures (corrupt reads, RYW misses)
	stats       netproto.ClientStats
	tracks      map[int64]*pageSeq // writer only: owned-page seq state
	err         error
}

// worker is one load-generating client.
type worker struct {
	cfg       netproto.ClientConfig
	writer    int // writer id, or -1 for a reader
	valueSize int
	pages     int64
	perWriter int64
	writers   int
	scanEvery int
	end       time.Time
	rng       *rand.Rand
}

func (w *worker) run() workerResult {
	res := workerResult{tracks: map[int64]*pageSeq{}}
	cl, err := netproto.Dial(w.cfg)
	if err != nil {
		res.err = err
		return res
	}
	defer func() { res.stats = cl.Stats(); cl.Close() }()

	if w.writer >= 0 {
		w.runWriter(cl, &res)
	} else {
		w.runReader(cl, &res)
	}
	return res
}

// runWriter drives stamped single-update transactions over the worker's
// owned page range via loadbench.SendTx, which re-sends the whole sequence
// on a mid-transaction reconnect so an ack always means a complete commit.
func (w *worker) runWriter(cl *netproto.Client, res *workerResult) {
	base := int64(w.writer) * w.perWriter
	value := make([]byte, w.valueSize)
	for i := 0; time.Now().Before(w.end); i++ {
		pid := base + w.rng.Int63n(w.perWriter)
		s := res.tracks[pid]
		if s == nil {
			s = &pageSeq{owner: uint32(w.writer)}
			res.tracks[pid] = s
		}
		seq := s.maxSent + 1
		w.rng.Read(value)
		loadbench.StampPage(value, pid, seq, uint32(w.writer))
		t0 := time.Now()
		s.maxSent = seq
		if err := loadbench.SendTx(cl, []loadbench.Update{{Page: pid, Data: value}}); err != nil {
			res.err = err
			return
		}
		s.acked = seq
		res.write.Observe(time.Since(t0))
		if i%16 == 15 { // read-your-writes spot check
			data, err := cl.Get(pid)
			if err != nil {
				res.err = err
				return
			}
			if got, wr, st := loadbench.CheckPage(data, pid); st != loadbench.PageOK || got != seq || wr != uint32(w.writer) {
				res.verifyFails++
				fmt.Fprintf(os.Stderr, "bpeload: writer %d page %d: read-your-writes got seq=%d st=%d want %d\n",
					w.writer, pid, got, st, seq)
			}
		}
	}
}

// runReader issues point gets (and optional scans) over the writer-owned
// space, classifying every page it sees: corrupt or foreign-stamped pages
// are verification failures even mid-load.
func (w *worker) runReader(cl *netproto.Client, res *workerResult) {
	space := w.pages
	if w.writers > 0 {
		space = w.perWriter * int64(w.writers)
	}
	check := func(data []byte, pid int64) {
		_, wr, st := loadbench.CheckPage(data, pid)
		if st == loadbench.PageCorrupt {
			res.verifyFails++
			fmt.Fprintf(os.Stderr, "bpeload: reader saw page %d corrupt\n", pid)
			return
		}
		if st == loadbench.PageOK && w.writers > 0 && int64(wr) != pid/w.perWriter {
			res.verifyFails++
			fmt.Fprintf(os.Stderr, "bpeload: page %d stamped by non-owner %d\n", pid, wr)
		}
	}
	for i := 0; time.Now().Before(w.end); i++ {
		pid := w.rng.Int63n(space)
		t0 := time.Now()
		if w.scanEvery > 0 && i%w.scanEvery == w.scanEvery-1 {
			n := int64(16)
			if pid+n > space {
				pid = space - n
			}
			if pid < 0 {
				pid, n = 0, space
			}
			resp, err := cl.Do(&netproto.Request{Op: netproto.OpScan, Page: pid, N: int32(n)})
			if err != nil {
				res.err = err
				return
			}
			if resp.Status != netproto.StatusOK {
				res.err = fmt.Errorf("scan: %s", resp.Data)
				return
			}
			if ps := len(resp.Data) / int(n); ps > 0 {
				for k := int64(0); k < n; k++ {
					check(resp.Data[k*int64(ps):(k+1)*int64(ps)], pid+k)
				}
			}
			res.scans++
		} else {
			data, err := cl.Get(pid)
			if err != nil {
				res.err = err
				return
			}
			check(data, pid)
		}
		res.read.Observe(time.Since(t0))
	}
}
