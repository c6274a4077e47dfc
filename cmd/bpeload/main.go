// Command bpeload drives a bpeserve instance with concurrent readers and
// writers over TCP and reports throughput, latency quantiles, and what the
// fault-tolerance machinery did (retries, sheds, deadline misses,
// reconnects). Each worker owns one netproto.Client — per-request
// deadlines, bounded reconnect, jittered backoff — so the benchmark
// survives shedding and restarts instead of dying on the first hiccup.
//
// Correctness is checked, not assumed. The writers are internal/loadbench's
// one Writer: each owns a disjoint page range and stamps every page with a
// self-describing header (seq, writer id, crc), reading every 8th
// acknowledged commit straight back. Readers classify every page they
// fetch, and once all workers stop, loadbench.Verify — the verifier chaos
// mode runs after every restart — re-reads every written page. The run
// fails, with a nonzero exit, if an acknowledged commit is lost, a page
// reads back corrupt, a never-sent sequence appears, or any worker ended
// with an error; each reason is printed to the report.
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

// run parses args, drives the load and writes the report, and every
// diagnostic behind a failure, to stdout.
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
	perWriter, space := int64(0), *pages
	if *writers > 0 {
		perWriter = *pages / int64(*writers)
		if perWriter == 0 {
			return fmt.Errorf("pages %d below writer count %d", *pages, *writers)
		}
		space = perWriter * int64(*writers)
	}
	ws := make([]*loadbench.Writer, *writers)
	for w := range ws {
		ws[w] = loadbench.NewWriter(uint32(w), int64(w)*perWriter, int(perWriter), 0, *valueSize, *seed+int64(*readers+w))
	}
	rs := make([]reader, *readers)
	for r := range rs {
		rs[r] = reader{space: space, perWriter: perWriter, scanEvery: *scanEvery, rng: rand.New(rand.NewSource(*seed + int64(r)))}
	}

	var mu sync.Mutex // serializes note and faults across workers
	note := func(s string) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintln(stdout, "bpeload:", s)
	}
	var faults netproto.ClientStats
	total := *readers + *writers
	errs := make([]error, total)
	start := time.Now()
	end := start.Add(*duration)
	done := func() bool { return !time.Now().Before(end) }
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := netproto.Dial(netproto.ClientConfig{Addr: *addr, Deadline: *deadline, Seed: uint64(*seed) + uint64(i)*0x9E37})
			if err != nil {
				errs[i] = err
				return
			}
			if i < *readers {
				errs[i] = rs[i].run(cl, done, note)
			} else {
				errs[i] = ws[i-*readers].Run(cl, done, note)
			}
			mu.Lock()
			metrics.Add(&faults, cl.Stats())
			mu.Unlock()
			cl.Close()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var readHist, writeHist metrics.Histogram
	var scans, inline int64
	for i := range rs {
		readHist.Merge(&rs[i].hist)
		scans += rs[i].scans
		inline += rs[i].fails
	}
	for _, w := range ws {
		writeHist.Merge(&w.Latency)
		inline += w.RYWFails
	}
	failed := 0
	for i, err := range errs {
		if err != nil {
			failed++
			note(fmt.Sprintf("worker %d: %v", i, err))
		}
	}
	reads, writes := readHist.Count(), writeHist.Count()
	ops := reads + writes

	fmt.Fprintf(stdout, "bpeload: %d readers + %d writers for %v against %s\n", *readers, *writers, elapsed.Round(time.Millisecond), *addr)
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
		faults.Retries, faults.Sheds, faults.Deadlines, faults.Busy, faults.Reconnects)
	fmt.Fprintf(stdout, "workers: %d of %d ended with an error\n", failed, total)

	// Every page an acked commit touched must read back intact at or above
	// its acked seq, and never above what was sent.
	var rep loadbench.Report
	if *writers > 0 {
		var err error
		if rep, err = loadbench.Verify(*addr, ws, note); err != nil {
			return fmt.Errorf("verification: %w", err)
		}
		fmt.Fprintf(stdout, "verify: %d pages checked, %d lost, %d corrupt, %d phantom, %d inline failures\n",
			rep.Pages, rep.Lost, rep.Corrupt, rep.Phantom, inline)
	}
	if bad := rep.Violations() + inline; bad > 0 {
		return fmt.Errorf("verification failed: %d violations", bad)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workers failed", failed, total)
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

// reader issues point gets (and optional scans) over page ids
// [0, space), classifying every page it sees: a corrupt page, or one
// stamped by a writer that does not own it, is a failure even mid-load.
type reader struct {
	space     int64
	perWriter int64 // pid's owner is pid/perWriter; 0 when there are no writers
	scanEvery int
	rng       *rand.Rand

	hist         metrics.Histogram // point gets and scans
	scans, fails int64
}

func (r *reader) check(data []byte, pid int64, note func(string)) {
	_, wr, st := loadbench.CheckPage(data, pid)
	if st == loadbench.PageCorrupt || st == loadbench.PageOK && r.perWriter > 0 && int64(wr) != pid/r.perWriter {
		r.fails++
		note(fmt.Sprintf("reader: page %d corrupt or stamped by non-owner %d", pid, wr))
	}
}

// run reads until done reports true and returns the first error.
func (r *reader) run(cl *netproto.Client, done func() bool, note func(string)) error {
	for i := 0; !done(); i++ {
		pid := r.rng.Int63n(r.space)
		t0 := time.Now()
		if r.scanEvery > 0 && i%r.scanEvery == r.scanEvery-1 {
			n := min(16, r.space)
			pid = min(pid, r.space-n)
			resp, err := cl.Do(&netproto.Request{Op: netproto.OpScan, Page: pid, N: int32(n)})
			if err != nil {
				return err
			}
			if resp.Status != netproto.StatusOK {
				return fmt.Errorf("scan: %s", resp.Data)
			}
			if ps := len(resp.Data) / int(n); ps > 0 {
				for k := int64(0); k < n; k++ {
					r.check(resp.Data[k*int64(ps):(k+1)*int64(ps)], pid+k, note)
				}
			}
			r.scans++
		} else {
			data, err := cl.Get(pid)
			if err != nil {
				return err
			}
			r.check(data, pid, note)
		}
		r.hist.Observe(time.Since(t0))
	}
	return nil
}
