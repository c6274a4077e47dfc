package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"turbobp/internal/harness"
	"turbobp/internal/microbench"
)

// The simulator workload's scale. A pass is Fig5TPCC then Fig5TPCE — 24
// simulated ten-hour runs over four designs — at divisor 2048, the scale of
// the repository's committed benchmark numbers: about two seconds, so a
// ten-second run holds enough passes for a median. Set-up is the same pass
// at the smoke divisor.
const (
	simDivisor      = 2048
	simSetupDivisor = 8192
)

// simPass is what one pass yields.
type simPass struct {
	wall             time.Duration
	cells            int
	events, commits  uint64
	tpcc2k           map[string]float64 // design → speedup over noSSD, TPC-C 2K warehouses
	tpce20kLC        float64
	tpcc2kLCSSDHit   float64
	orderingViolated bool
}

func runSimPass(divisor int64) (simPass, error) {
	var p simPass
	t0 := time.Now()
	scale := harness.Scale{Divisor: divisor}
	tpcc, err := harness.Fig5TPCC(scale)
	if err != nil {
		return p, err
	}
	tpce, err := harness.Fig5TPCE(scale)
	if err != nil {
		return p, err
	}
	p.wall = time.Since(t0)
	p.tpcc2k = map[string]float64{}
	for _, res := range []*harness.Fig5Result{tpcc, tpce} {
		for key, d := range res.Details {
			p.cells++
			p.events += d.Events
			p.commits += uint64(d.Engine.Commits)
			if strings.HasPrefix(key, "2K warehouse") && strings.HasSuffix(key, "/LC") {
				p.tpcc2kLCSSDHit = d.SSDHitRate
			}
		}
		for _, row := range res.Rows {
			switch {
			case strings.HasPrefix(row.Label, "2K warehouse"):
				p.tpcc2k[row.Design.String()] = row.Speedup
			case strings.HasPrefix(row.Label, "20K customer") && row.Design.String() == "LC":
				p.tpce20kLC = row.Speedup
			}
		}
	}
	// The paper's Figure 5 order on the update-intensive benchmark.
	s := p.tpcc2k
	p.orderingViolated = !(s["LC"] > s["DW"] && s["DW"] > s["TAC"] && s["TAC"] > s["noSSD"])
	return p, nil
}

// runSim runs sim_oltp: in process, no server, one worker, fixed work per
// pass. An "op" is one simulated committed transaction, a count the
// simulator's goldens pin, so ops_s moves only with wall-clock speed.
func runSim(ctx context.Context, cfg config, rep *report) error {
	prev := harness.Workers()
	harness.SetWorkers(1)
	defer harness.SetWorkers(prev)
	// mem_peak_mb is this process's peak resident set. In a suite the
	// process has already run the wire workloads, so hand their garbage back
	// and restart the kernel's high-water mark (clear_refs 5) from here.
	if cfg.suite {
		debug.FreeOSMemory()
		os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	}

	divisor := int64(simDivisor)
	if quick {
		divisor = simSetupDivisor
	}
	var setupS []float64
	for began := time.Now(); moreSetups(cfg, len(setupS), time.Since(began)); {
		p, err := runSimPass(simSetupDivisor)
		if err != nil {
			return err
		}
		setupS = append(setupS, p.wall.Seconds())
	}

	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2 // the other half of the run goes to the microbenchmarks
	}
	var passes []simPass
	for t0 := time.Now(); len(passes) == 0 || time.Since(t0) < d; {
		if err := ctx.Err(); err != nil {
			return err
		}
		p, err := runSimPass(divisor)
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}

	var rate, usPerOp []float64
	first := passes[0]
	for i, p := range passes {
		rep.Attempted += int64(p.cells)
		if p.events != first.events || p.commits != first.commits {
			rep.Failed++
			rep.note("pass %d dispatched %d events and committed %d transactions; pass 0 did %d and %d",
				i, p.events, p.commits, first.events, first.commits)
		}
		if p.orderingViolated {
			rep.Failed++
			rep.note("pass %d: TPC-C 2K speedups %v break the order LC > DW > TAC > noSSD", i, p.tpcc2k)
		}
		rate = append(rate, float64(p.commits)/p.wall.Seconds())
		usPerOp = append(usPerOp, float64(p.wall.Microseconds())/float64(p.commits))
	}
	rep.Windows = rate
	rep.note("samples: %d passes of %d simulated runs, %d events and %d transactions each; ops/s per pass %.0f",
		len(passes), first.cells, first.events, first.commits, rep.Windows)

	if !cfg.trace {
		rep.set("setup_s", median(setupS))
		rep.set("ops_s", median(rate))
		rep.set("op_p50_us", median(usPerOp))
		rep.set("mem_peak_mb", selfPeakRSSMB())
		return nil
	}
	var eventRate []float64
	for _, p := range passes {
		eventRate = append(eventRate, float64(p.events)/p.wall.Seconds())
	}
	rep.set("sim.events_per_pass", float64(first.events))
	rep.set("sim.events_per_s", median(eventRate))
	rep.set("sim.tpcc2k_lc_speedup", first.tpcc2k["LC"])
	rep.set("sim.tpce20k_lc_speedup", first.tpce20kLC)
	rep.set("sim.tpcc2k_lc_ssd_hit_ratio", first.tpcc2kLCSSDHit)
	return microbenchProbe(ctx, rep)
}

// microbenchProbe runs the repository's own hot-path microbenchmarks of
// the virtual-time form (engine, SSD manager, policy, scheduler) through
// testing.Benchmark.
func microbenchProbe(ctx context.Context, rep *report) error {
	testing.Init() // registers -test.benchtime when not under go test
	benchtime := "300ms"
	if quick {
		benchtime = "10ms"
	}
	f := flag.Lookup("test.benchtime")
	old := f.Value.String()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return err
	}
	defer flag.Set("test.benchtime", old)
	for _, b := range []struct {
		name   string
		fn     func(*testing.B)
		allocs string
	}{
		{"engine.get_hit_ns", microbench.GetHit, "engine.get_hit_allocs"},
		{"engine.get_miss_ns", microbench.GetMiss, ""},
		{"engine.update_commit_ns", microbench.UpdateCommit, ""},
		{"ssd.group_clean_ns", microbench.GroupClean, ""},
		{"policy.touch_lru2_ns", microbench.PolicyTouchLRU2, ""},
		{"policy.evict_lru2_ns", microbench.PolicyEvictLRU2, ""},
		{"sim.sched_calendar_ns", microbench.SchedulerCalendar, ""},
	} {
		if err := ctx.Err(); err != nil {
			return err
		}
		r := testing.Benchmark(b.fn)
		if r.N == 0 {
			return fmt.Errorf("microbenchmark %s failed", b.name)
		}
		rep.Attempted++
		rep.set(b.name, float64(r.T.Nanoseconds())/float64(r.N))
		if b.allocs != "" {
			rep.set(b.allocs, float64(r.MemAllocs)/float64(r.N))
		}
	}
	return nil
}
