package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runServerWorkload runs one srv_* workload against a page-server child:
// set-up (spawn plus the fixed warm-up; repeated for its median when
// untraced), the measured pass, the correctness passes, and — traced — the
// traced pass and the layer probes.
func runServerWorkload(ctx context.Context, cfg config, rep *report) error {
	var (
		srv    *server
		cs     []*client
		setupS []float64
	)
	discard := func() {
		if srv != nil {
			srv.kill()
			os.RemoveAll(srv.dir)
		}
	}
	defer discard() // whichever server srv names by then
	tally := func() {
		for _, c := range cs {
			rep.Attempted += c.attempted
			rep.Failed += c.failed
			if c.firstErr != nil {
				rep.note("client %d: first failure: %v", c.id, c.firstErr)
			}
		}
	}
	for began := time.Now(); moreSetups(cfg, len(setupS), time.Since(began)); {
		discard()
		tally() // an earlier set-up's warm-up operations count too
		dir, err := os.MkdirTemp(cfg.work, "data-*")
		if err != nil {
			return err
		}
		t0 := time.Now()
		if srv, err = startServer(ctx, dir); err != nil {
			os.RemoveAll(dir)
			return err
		}
		cs = newClients(cfg.workload, cfg.seed, cfg.clients)
		runPass(ctx, srv, cs, passWarmup, 0, false)
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer tally()
	// Memory is taken here, after a fixed amount of work: at the end of the
	// timed pass it would grow with the number of operations the pass
	// completed (the simulated log lives in memory), and a faster program
	// would read as a hungrier one.
	memMB := procPeakRSSMB(srv.cmd.Process.Pid)

	d := time.Duration(cfg.seconds * float64(time.Second))
	primary := func(p *pass) []int64 { // the workload's own operation
		if cfg.workload == wlUpdateMix {
			return p.txNS
		}
		return p.readNS
	}
	var untraced *pass
	if !cfg.trace {
		untraced = runPass(ctx, srv, cs, passWindow, d, false)
		rep.set("setup_s", median(setupS))
		rep.set("ops_s", untraced.opsPerSec())
		rep.set("op_p50_us", float64(percentile(primary(untraced), 0.50))/1e3)
		rep.note("setup_s samples %.3f", setupS)
	} else {
		// End-to-end figures always come from an untraced pass; the traced
		// pass that follows on the same server gives the span self times,
		// and the difference in rate is what tracing cost.
		untraced = runPass(ctx, srv, cs, passWindow, d/2, false)
		traced := runPass(ctx, srv, cs, passWindow, d/2, true)
		clientMetrics(rep, untraced)
		rep.set("server.cpu_us_per_op", untraced.cpuPerOp())
		if err := traceMetrics(cfg, rep, untraced, traced); err != nil {
			return err
		}
		liveServerProbes(rep, srv, cfg.clients)
	}
	rep.Windows = untraced.rates()
	rep.note("samples: %d reads, %d transactions; ops/s per window %.0f", len(untraced.readNS), len(untraced.txNS), rep.Windows)

	if cfg.workload == wlUpdateMix {
		runPass(ctx, srv, cs, passVerify, 0, false) // every page the clients wrote is read back
	}
	if !cfg.trace {
		if memMB == 0 { // no /proc for the child: settle for its peak over the whole run
			memMB = srv.reapedPeakRSSMB()
		}
		rep.set("mem_peak_mb", memMB)
	}
	if !cfg.trace || ctx.Err() != nil {
		return nil
	}

	// The embedded probes want the machine to themselves.
	discard()
	srv = nil
	dir, err := os.MkdirTemp(cfg.work, "embedded-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := netprotoProbe(rep); err != nil {
		return err
	}
	if err := deviceProbe(rep, filepath.Join(dir, "probe.log")); err != nil {
		return err
	}
	if err := replay(ctx, cfg, rep); err != nil {
		return err
	}
	reconcile(cfg, rep)
	return nil
}

// clientMetrics reports the client's view per operation type: the median,
// the 99th percentile, and the highest percentile the sample supports (at
// least ten samples beyond it) together with which percentile that is.
func clientMetrics(rep *report, p *pass) {
	for _, k := range []struct {
		name string
		ns   []int64
	}{{"read", p.readNS}, {"commit", p.txNS}} {
		if len(k.ns) == 0 {
			continue
		}
		q := pmax(len(k.ns))
		rep.set("client."+k.name+"_p50_us", float64(percentile(k.ns, 0.50))/1e3)
		rep.set("client."+k.name+"_p99_us", float64(percentile(k.ns, 0.99))/1e3)
		rep.set("client."+k.name+"_pmax_us", float64(percentile(k.ns, q))/1e3)
		rep.set("client."+k.name+"_pmax_pct", 100*q)
	}
}

// traceMetrics reduces the traced pass to per-span self times and writes
// the spans out when asked to.
func traceMetrics(cfg config, rep *report, untraced, traced *pass) error {
	if u := untraced.opsPerSec(); u > 0 {
		rep.set("trace.overhead_pct", 100*(u-traced.opsPerSec())/u)
	}
	self, rootNS := selfTimes(traced.recs)
	for name := spOpGet; name <= spDecode; name++ {
		if len(self[name]) == 0 {
			continue
		}
		total := 0.0
		for _, v := range self[name] {
			total += v
		}
		rep.set("trace."+spanNames[name]+"_self_p50_us", percentile(self[name], 0.50)/1e3)
		rep.set("trace."+spanNames[name]+"_self_share", total/rootNS)
	}
	var dropped int64
	for _, r := range traced.recs {
		dropped += r.dropped
	}
	if dropped > 0 {
		rep.note("traced pass: %d spans dropped (recorder full)", dropped)
	}
	if cfg.out == "" {
		return nil
	}
	path := filepath.Join(cfg.out, "trace-"+cfg.workload+".jsonl")
	if err := writeSpans(path, traced.recs); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.note("spans written to %s", path)
	return nil
}

// reconcile reports how much of the client's median the parts measured
// alone leave unexplained: the wire and serve loop (a health round trip per
// frame) plus the facade call embedded. A residual that grows says the
// serve loop, admission or CPU contention got worse.
func reconcile(cfg config, rep *report) {
	val := func(name string) float64 { return rep.Metrics[name].Value }
	rtt := val("wire.health_rtt_p50_us")
	if e2e := val("client.read_p50_us"); e2e > 0 {
		part := val("turbobp.read_miss_p50_us")
		if cfg.workload == wlReadHot {
			part = val("turbobp.read_hot_p50_ns") / 1e3
		}
		rep.set("recon.read_residual_pct", 100*(e2e-rtt-part)/e2e)
	}
	if e2e := val("client.commit_p50_us"); e2e > 0 {
		// A transaction is three frames.
		rep.set("recon.commit_residual_pct", 100*(e2e-3*rtt-val("turbobp.tx_commit_p50_us"))/e2e)
	}
}
