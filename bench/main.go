// Command bench is the repository's benchmark: three closed-loop wire
// workloads against a page-server child process (srv_read_hot,
// srv_read_cold, srv_update_mix; the server is this binary run with -serve,
// see serve.go for why it is not cmd/bpeserve) and one in-process simulator
// workload (sim_oltp), each with end-to-end metrics, per-layer probes taken
// from outside the layers' public functions, a traced pass, and a
// correctness check of every response. README.md in this directory has the
// metric and workload tables.
//
// One measured run, as the driver of BENCHMARK.json makes it:
//
//	bash bench/run.sh --workload srv_read_cold --seed 1 --seconds 10 --trace 0
//
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics: every end-to-end metric with
// --trace 0, every per-layer metric with --trace 1. Without --workload the
// whole suite runs (every workload, untraced then traced) and one JSON
// document comes out; -repeat N repeats it, -history appends a line per
// run to a file, and -compare a.json b.json judges one such document
// against another.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"
)

// metricDef is one row of the benchmark's metric tables. BENCHMARK.json
// repeats these tables for the driver; bench_test.go holds the two equal.
type metricDef struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only: the share by which it may worsen
}

// endToEnd is what a user of the system sees. Every workload reports every
// row; what an "op" is on each workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"mem_peak_mb", "MB", "lower", 0.25},
}

// perLayer is what single layers do, measured from outside them. A metric
// a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// the client's view, per op type, from the untraced half of a traced run
	{"client.read_p50_us", "us", "lower", 0},
	{"client.read_p99_us", "us", "lower", 0},
	{"client.read_pmax_us", "us", "lower", 0},
	{"client.read_pmax_pct", "%", "higher", 0},
	{"client.commit_p50_us", "us", "lower", 0},
	{"client.commit_p99_us", "us", "lower", 0},
	{"client.commit_pmax_us", "us", "lower", 0},
	{"client.commit_pmax_pct", "%", "higher", 0},
	// netproto: the codec alone, a 256-byte payload over a bytes.Buffer
	{"netproto.encode_req_ns", "ns", "lower", 0},
	{"netproto.decode_req_ns", "ns", "lower", 0},
	{"netproto.encode_resp_ns", "ns", "lower", 0},
	{"netproto.decode_resp_ns", "ns", "lower", 0},
	{"netproto.allocs_per_roundtrip", "count", "lower", 0},
	// wire: socket and serve loop, database untouched; the server's CPU
	{"wire.health_rtt_p50_us", "us", "lower", 0},
	{"wire.health_rtt_p99_us", "us", "lower", 0},
	{"server.cpu_us_per_op", "us", "lower", 0},
	// turbobp: the facade on the simulated backend, embedded
	{"turbobp.read_hot_p50_ns", "ns", "lower", 0},
	{"turbobp.read_miss_p50_us", "us", "lower", 0},
	{"turbobp.read_miss_p99_us", "us", "lower", 0},
	{"turbobp.tx_commit_p50_us", "us", "lower", 0},
	{"turbobp.virtual_us_per_op", "us", "lower", 0},
	// bufpool, ssd: Stats deltas over the embedded replay
	{"bufpool.hit_ratio", "ratio", "higher", 0},
	{"ssd.hit_ratio", "ratio", "higher", 0},
	{"ssd.dirty_frames_end", "count", "lower", 0},
	{"ssd.occupied_frames_end", "count", "higher", 0},
	// device: replay deltas, and a probe of the sandbox's file system
	{"device.disk_reads_per_op", "1/op", "lower", 0},
	{"device.disk_writes_per_op", "1/op", "lower", 0},
	{"device.ssd_reads_per_op", "1/op", "lower", 0},
	{"device.ssd_writes_per_op", "1/op", "lower", 0},
	{"device.pread_p50_us", "us", "lower", 0},
	{"device.pwrite_p50_us", "us", "lower", 0},
	{"device.fsync_p50_us", "us", "lower", 0},
	{"device.fsync_p99_us", "us", "lower", 0},
	// wal: the group-commit door and one fsync, on the probe file
	{"wal.group_commit_alone_p50_us", "us", "lower", 0},
	// engine, ssd, policy, sim: the virtual-time form (internal/microbench)
	{"engine.get_hit_ns", "ns", "lower", 0},
	{"engine.get_hit_allocs", "count", "lower", 0},
	{"engine.get_miss_ns", "ns", "lower", 0},
	{"engine.update_commit_ns", "ns", "lower", 0},
	{"ssd.group_clean_ns", "ns", "lower", 0},
	{"policy.touch_lru2_ns", "ns", "lower", 0},
	{"policy.evict_lru2_ns", "ns", "lower", 0},
	{"sim.sched_calendar_ns", "ns", "lower", 0},
	{"sim.events_per_pass", "count", "lower", 0},
	{"sim.events_per_s", "1/s", "higher", 0},
	{"sim.tpcc2k_lc_speedup", "ratio", "higher", 0},
	{"sim.tpce20k_lc_speedup", "ratio", "higher", 0},
	{"sim.tpcc2k_lc_ssd_hit_ratio", "ratio", "higher", 0},
	// reconciliation: what the parts leave unexplained
	{"recon.read_residual_pct", "%", "lower", 0},
	{"recon.commit_residual_pct", "%", "lower", 0},
	// the traced pass: self time per span name, and what tracing cost
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.op.get_self_p50_us", "us", "lower", 0},
	{"trace.op.get_self_share", "ratio", "lower", 0},
	{"trace.op.tx_self_p50_us", "us", "lower", 0},
	{"trace.op.tx_self_share", "ratio", "lower", 0},
	{"trace.netproto.encode_self_p50_us", "us", "lower", 0},
	{"trace.netproto.encode_self_share", "ratio", "lower", 0},
	{"trace.wire.flush_self_p50_us", "us", "lower", 0},
	{"trace.wire.flush_self_share", "ratio", "lower", 0},
	{"trace.server.wait_self_p50_us", "us", "lower", 0},
	{"trace.server.wait_self_share", "ratio", "lower", 0},
	{"trace.netproto.decode_self_p50_us", "us", "lower", 0},
	{"trace.netproto.decode_self_share", "ratio", "lower", 0},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the driver reads from the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a result plus what only the suite document keeps.
type report struct {
	result
	Windows []float64 // ops/s per ~1 s slice of the measured pass
	Notes   []string  // sample counts, first error, trace file
	defs    []metricDef
}

func newReport(defs []metricDef) *report {
	return &report{result: result{Metrics: map[string]metric{}}, defs: defs}
}

// set records a metric of the report's table; a name outside it is a bug.
func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.Metrics[name] = metric{v, d.unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

func (r *report) note(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// finish fills in the rows the workload does not exercise and settles
// correctness: no failed operation, and no end-to-end metric at zero (a
// zero there means a phase measured nothing).
func (r *report) finish(trace bool) {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, d := range r.defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			r.Metrics[d.name] = metric{0, d.unit}
		}
		if !trace && m.Value <= 0 {
			r.Correct = false
			r.note("end-to-end metric %s was not measured", d.name)
		}
	}
}

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	suite    bool   // every workload in this one process
	out      string // directory for trace-<workload>.jsonl; "" writes none
	clients  int
	work     string // scratch directory, removed on exit
}

// clients is the number of closed-loop callers of the wire workloads, on any
// machine. With as few callers as cores (ISSUE.md's clamp(nproc, 1, 4) gives
// 2 on the reference box) a core goes idle in every round trip, and the time
// the hypervisor takes to wake an idle virtual CPU — which wanders by tens of
// per cent for minutes at a time — is most of the round trip: srv_update_mix
// read 8–19 thousand ops/s from run to run with one or two callers, and
// 24–27 thousand with four, which keep the server's cores busy.
const clients = 4

// quick shrinks warm-ups, replays and probes fifty-fold for the smoke
// test; its numbers mean nothing.
var quick bool

// moreSetups says whether set-up should run again, having run done times
// in spent. setup_s is the median over the repeats: three at least, and as
// many more (nine at most) as fit in two seconds, so a set-up of a fifth of
// a second is not judged on three samples. A traced run reports no setup_s
// and sets up once.
func moreSetups(cfg config, done int, spent time.Duration) bool {
	if cfg.trace || quick {
		return done < 1
	}
	return done < 3 || done < 9 && spent < 2*time.Second
}

// runOne runs one workload once, traced or not.
func runOne(ctx context.Context, cfg config) *report {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rep := newReport(defs)
	var err error
	if cfg.workload == wlSimOLTP {
		err = runSim(ctx, cfg, rep)
	} else {
		err = runServerWorkload(ctx, cfg, rep)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		rep.Attempted++
		rep.Failed++
		rep.note("run aborted: %v", err)
	}
	rep.finish(cfg.trace)
	return rep
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the whole command: it parses args, writes results to stdout and
// diagnostics to standard error, and returns the exit status.
func run(args []string, stdout io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "run this one workload (default: the whole suite)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload generator seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of a measured pass")
	traceN := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "directory to write trace-<workload>.jsonl into (default: spans are not written)")
	fs.BoolVar(&quick, "quick", false, "smoke-test sizes: warm-ups, replays and probes shrink fifty-fold")
	maxTime := fs.Duration("max-time", 150*time.Second, "abort a run that takes longer; the result is then incorrect")
	repeat := fs.Int("repeat", 1, "suite: run it this many times and summarise medians, quartiles and spread")
	history := fs.String("history", "", "suite: append one JSON line per run to this file")
	compare := fs.Bool("compare", false, "compare suite documents: bench -compare base.json other.json [more...]")
	serving := fs.Bool("serve", false, "be the page server of the wire workloads (the bench starts this itself)")
	addr := fs.String("addr", "127.0.0.1:0", "-serve: listen address")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *serving {
		return serve(*addr)
	}
	if *compare {
		return compareFiles(stdout, fs.Args())
	}
	if cfg.workload != "" && !slices.Contains(workloadNames, cfg.workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", cfg.workload, workloadNames)
		return 2
	}
	cfg.trace = *traceN != 0
	cfg.clients = clients

	// Every exit path below passes through cleanup: the signal handler, the
	// deadline (ctx), an error, a normal return.
	var err error
	cfg.work, err = os.MkdirTemp("", "turbobp-bench-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cleanup := func() {
		stopAllServers()
		os.RemoveAll(cfg.work)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	if cfg.workload != "" {
		ctx, cancel := context.WithTimeout(context.Background(), *maxTime)
		rep := runOne(ctx, cfg)
		cancel()
		for _, n := range rep.Notes {
			fmt.Fprintln(os.Stderr, "bench:", n)
		}
		line, _ := json.Marshal(rep.result)
		fmt.Fprintln(stdout, string(line))
		if !rep.Correct {
			return 1
		}
		return 0
	}
	cfg.suite = true
	return runSuite(stdout, cfg, *maxTime, *repeat, *history)
}
