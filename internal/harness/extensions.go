package harness

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"turbobp/internal/device"
	"turbobp/internal/engine"
	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
)

// This file holds the experiments beyond the paper's published artifacts:
// the two §6 future-work directions (warm restart and mid-range SSDs) and
// ablations of the §3.3 design choices that DESIGN.md calls out.

// MidrangeRow is one SSD-grade data point of the §6 claim that "mid-range
// SSDs may provide similar performance benefits ... if the disk subsystem
// is the bottleneck".
type MidrangeRow struct {
	Grade    string
	IOPSFrac float64 // fraction of the Fusion ioDrive's IOPS
	TPS      float64
	Speedup  float64 // over noSSD
}

// RunMidrange runs TPC-E 20K under DW with progressively slower SSDs.
func RunMidrange(scale Scale) (MidrangeRows, error) {
	grades := MidrangeRows{
		{Grade: "enterprise (ioDrive)", IOPSFrac: 1.0},
		{Grade: "mid-range", IOPSFrac: 0.5},
		{Grade: "entry", IOPSFrac: 0.25},
		{Grade: "low-end", IOPSFrac: 0.125},
	}
	// Cell 0 is the noSSD baseline; cells 1..n are the SSD grades.
	rs, err := RunGrid(1+len(grades), func(i int) (*OLTPResult, error) {
		if i == 0 {
			return RunOLTP(buildOLTP(scale, ssd.NoSSD, "tpce", TPCESizesGB[20], nil))
		}
		frac := grades[i-1].IOPSFrac
		return RunOLTP(buildOLTP(scale, ssd.DW, "tpce", TPCESizesGB[20], func(c *engine.Config) {
			c.SSDProfile = device.ProfileFromIOPS(
				device.SSDRandReadIOPS*frac,
				device.SSDSeqReadIOPS*frac,
				device.SSDRandWriteIOPS*frac,
				device.SSDSeqWriteIOPS*frac,
			)
		}))
	})
	if err != nil {
		return nil, err
	}
	base := rs[0]
	for i := range grades {
		grades[i].TPS = rs[i+1].FinalTPS
		if base.FinalTPS > 0 {
			grades[i].Speedup = rs[i+1].FinalTPS / base.FinalTPS
		}
	}
	return grades, nil
}

// MidrangeRows is the SSD-grade sweep, best grade first.
type MidrangeRows []MidrangeRow

// Print renders the SSD-grade sweep.
func (rows MidrangeRows) Print(w io.Writer) {
	fmt.Fprintln(w, "Mid-range SSD sweep (§6): DW on TPC-E 20K, SSD IOPS scaled down")
	fmt.Fprintf(w, "%-22s %10s %12s %9s\n", "SSD grade", "IOPS", "tx/s", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %10.0f %12.2f %8.2fX\n",
			r.Grade, device.SSDRandReadIOPS*r.IOPSFrac, r.TPS, r.Speedup)
	}
}

// WarmRestartResult compares post-restart ramp-up with and without the §6
// warm-restart extension.
type WarmRestartResult struct {
	ColdTPS, WarmTPS           float64 // mean tx/s in the first post-restart hour
	ColdSSDHits, WarmSSDHits   int64   // SSD hits in that hour
	ColdRestartS, WarmRestartS float64 // redo pass duration (virtual seconds)
}

// RunWarmRestart runs TPC-E 20K under DW for five hours, checkpoints,
// crashes, recovers (cold vs warm), and measures the first post-restart
// hour.
func RunWarmRestart(scale Scale) (*WarmRestartResult, error) {
	measure := func(warm bool) (tps float64, hits int64, restart float64, err error) {
		run := buildOLTP(scale, ssd.DW, "tpce", TPCESizesGB[20], func(c *engine.Config) {
			c.WarmRestart = warm
		})
		env := sim.NewEnv()
		e := engine.New(env, run.Config)
		if err = e.FormatDB(); err != nil {
			return
		}
		stop := run.Workload.Start(env, e, nil)
		env.Run(scale.Hours(5))
		// Quiesce the clients before crashing: workers exit at their next
		// transaction boundary, so no transaction is in flight when the
		// pool is torn down.
		stop()
		env.Run(env.Now() + scale.Hours(1))
		err = runToCompletion(env, env.Now()+scale.Hours(50), func(p *sim.Proc) error {
			if cerr := e.Checkpoint(p); cerr != nil {
				return cerr
			}
			e.Crash()
			t0 := p.Now()
			if rerr := e.Recover(p); rerr != nil {
				return rerr
			}
			restart = (p.Now() - t0).Seconds()
			return nil
		})
		if err != nil {
			return
		}
		// Fresh client fleet for the post-restart measurement window.
		run.Workload.Seed += 7777
		run.Workload.Start(env, e, nil)
		commitsBefore := e.Stats().Commits
		hitsBefore := e.SSD().Stats().Hits
		start := env.Now()
		env.Run(start + scale.Hours(1))
		e.StopBackground()
		tps = float64(e.Stats().Commits-commitsBefore) / scale.Hours(1).Seconds()
		hits = e.SSD().Stats().Hits - hitsBefore
		env.Shutdown()
		return
	}
	type cell struct {
		tps     float64
		hits    int64
		restart float64
	}
	rs, err := RunGrid(2, func(i int) (cell, error) {
		tps, hits, restart, err := measure(i == 1)
		return cell{tps, hits, restart}, err
	})
	if err != nil {
		return nil, err
	}
	return &WarmRestartResult{
		ColdTPS: rs[0].tps, ColdSSDHits: rs[0].hits, ColdRestartS: rs[0].restart,
		WarmTPS: rs[1].tps, WarmSSDHits: rs[1].hits, WarmRestartS: rs[1].restart,
	}, nil
}

// Print renders the warm-restart comparison.
func (r *WarmRestartResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Warm restart (§6 extension): TPC-E 20K DW, crash after 5 hours + checkpoint")
	fmt.Fprintf(w, "%-14s %14s %14s %16s\n", "restart mode", "tx/s (1st hr)", "SSD hits", "redo time")
	fmt.Fprintf(w, "%-14s %14.2f %14d %15.2fs\n", "cold (paper)", r.ColdTPS, r.ColdSSDHits, r.ColdRestartS)
	fmt.Fprintf(w, "%-14s %14.2f %14d %15.2fs\n", "warm", r.WarmTPS, r.WarmSSDHits, r.WarmRestartS)
	if r.ColdTPS > 0 {
		fmt.Fprintf(w, "warm/cold first-hour throughput: %.2fX\n", r.WarmTPS/r.ColdTPS)
	}
}

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Name   string
	TPS    float64
	Detail string
}

// RunAblations sweeps the §3.3 optimization knobs one at a time on TPC-C
// 2K under LC (the configuration most sensitive to them) and reports
// final-hour throughput against the paper-default configuration.
func RunAblations(scale Scale) (AblationRows, error) {
	type variant struct {
		name   string
		detail string
		mod    func(*engine.Config)
	}
	variants := []variant{
		{"defaults", "Table 2 settings", nil},
		{"no aggressive fill", "τ=0: only random pages ever admitted", func(c *engine.Config) {
			c.FillThreshold = 0.001
		}},
		{"no group cleaning", "α=1: the LC cleaner writes single pages", func(c *engine.Config) {
			c.GroupClean = 1
		}},
		{"tight throttle", "μ=4: SSD queue capped hard", func(c *engine.Config) {
			c.Throttle = 4
		}},
		{"single partition", "N=1: one shard for the whole SSD", func(c *engine.Config) {
			c.Partitions = 1
		}},
		{"no read expansion", "start-up reads stay single-page", func(c *engine.Config) {
			c.ReadExpansion = -1
		}},
		{"distance classifier", "admission fed by the 64-page heuristic", func(c *engine.Config) {
			c.Classifier = engine.ClassifyDistance
		}},
	}
	rs, err := RunGrid(len(variants), func(i int) (*OLTPResult, error) {
		return RunOLTP(buildOLTP(scale, ssd.LC, "tpcc", TPCCSizesGB[2], variants[i].mod))
	})
	if err != nil {
		return nil, err
	}
	rows := make(AblationRows, len(variants))
	for i, v := range variants {
		rows[i] = AblationRow{Name: v.name, TPS: rs[i].FinalTPS, Detail: v.detail}
	}
	return rows, nil
}

// AblationRows is the ablation sweep; row 0 is the paper-default baseline.
type AblationRows []AblationRow

// Print renders the ablation sweep.
func (rows AblationRows) Print(w io.Writer) {
	fmt.Fprintln(w, "Design-choice ablations: LC on TPC-C 2K, one knob changed at a time")
	base := 0.0
	if len(rows) > 0 {
		base = rows[0].TPS
	}
	fmt.Fprintf(w, "%-22s %12s %9s  %s\n", "variant", "tx/s", "vs base", "detail")
	for _, r := range rows {
		rel := 0.0
		if base > 0 {
			rel = r.TPS / base
		}
		fmt.Fprintf(w, "%-22s %12.2f %8.2fX  %s\n", r.Name, r.TPS, rel, r.Detail)
	}
}

// trimmingExperiment quantifies the multi-page I/O optimization (§3.3.3):
// a scan over a table whose pages partially live in the SSD, with and
// without the trimming logic. Without trimming stands in the naive
// "split the request into pieces" strategy the paper found slower.
type TrimmingResult struct {
	DiskOpsTrimmed  int64
	DiskOpsNaive    int64
	ScanSecsTrimmed float64
	ScanSecsNaive   float64
}

// RunTrimming measures the §3.3.3 effect directly at the device level.
func RunTrimming(scale Scale) (*TrimmingResult, error) {
	type cell struct {
		ops  int64
		secs float64
	}
	measure := func(naive bool) (cell, error) {
		cfg := scale.Config(ssd.DW, 45)
		cfg.FillThreshold = 0.001
		cfg.ReadAheadRamp = -1
		if naive {
			// Naive splitting ≈ single-page requests for everything.
			cfg.ReadAhead = 1
		}
		env := sim.NewEnv()
		e := newRunEngine(env, cfg)
		if err := e.FormatDB(); err != nil {
			return cell{}, err
		}
		region := cfg.DBPages / 4
		var elapsed time.Duration
		err := runToCompletion(env, scale.Hours(100), func(p *sim.Proc) error {
			// Seed the SSD with every third page of the region (random
			// lookups), then overflow the pool.
			rng := rand.New(rand.NewSource(3))
			for i := int64(0); i < region; i += 3 {
				if _, err := e.Get(p, page.ID(i)); err != nil {
					return err
				}
			}
			for i := int64(0); i < int64(cfg.PoolPages)+8; i++ {
				if _, err := e.Get(p, page.ID(region+i%region)); err != nil {
					return err
				}
			}
			_ = rng
			t0 := p.Now()
			if err := e.Scan(p, 0, int(region)); err != nil {
				return err
			}
			elapsed = p.Now() - t0
			return nil
		})
		e.StopBackground()
		ops := e.DiskArray().Stats().ReadOps
		env.Shutdown()
		if err != nil {
			return cell{}, err
		}
		return cell{ops: ops, secs: elapsed.Seconds()}, nil
	}
	rs, err := RunGrid(2, func(i int) (cell, error) {
		return measure(i == 1)
	})
	if err != nil {
		return nil, err
	}
	return &TrimmingResult{
		DiskOpsTrimmed: rs[0].ops, ScanSecsTrimmed: rs[0].secs,
		DiskOpsNaive: rs[1].ops, ScanSecsNaive: rs[1].secs,
	}, nil
}

// Print renders the trimming comparison.
func (r *TrimmingResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Multi-page I/O trimming (§3.3.3): scan over a region 1/3-cached in SSD")
	fmt.Fprintf(w, "%-28s %12s %12s\n", "strategy", "disk reads", "scan time")
	fmt.Fprintf(w, "%-28s %12d %11.2fs\n", "trim edges, one disk I/O", r.DiskOpsTrimmed, r.ScanSecsTrimmed)
	fmt.Fprintf(w, "%-28s %12d %11.2fs\n", "naive per-page splitting", r.DiskOpsNaive, r.ScanSecsNaive)
}

// RestartRow is one configuration of the checkpoint-policy / λ sweep.
type RestartRow struct {
	Policy      string
	Lambda      float64
	CheckpointS float64 // duration of the mid-run checkpoint (virtual s)
	RecoveryS   float64 // crash-recovery duration (virtual s)
	RedoRecords int64
}

// RunRestart quantifies §2.3.3's tradeoff between checkpoint cost and
// restart time: sharp checkpoints are expensive but make recovery fast;
// fuzzy checkpoints are nearly free but leave a redo tail that grows with
// λ (the dirty pages parked on the SSD).
func RunRestart(scale Scale) (RestartRows, error) {
	measure := func(fuzzy bool, lambda float64) (RestartRow, error) {
		run := buildOLTP(scale, ssd.LC, "tpcc", TPCCSizesGB[2], func(c *engine.Config) {
			c.DirtyFraction = lambda
			c.FuzzyCheckpoints = fuzzy
		})
		env := sim.NewEnv()
		e := engine.New(env, run.Config)
		if err := e.FormatDB(); err != nil {
			return RestartRow{}, err
		}
		stop := run.Workload.Start(env, e, nil)
		env.Run(scale.Hours(3))
		stop()
		env.Run(env.Now() + scale.Hours(0.5))
		row := RestartRow{Policy: "sharp", Lambda: lambda}
		if fuzzy {
			row.Policy = "fuzzy"
		}
		err := runToCompletion(env, env.Now()+scale.Hours(100), func(p *sim.Proc) error {
			t0 := p.Now()
			if err := e.Checkpoint(p); err != nil {
				return err
			}
			row.CheckpointS = (p.Now() - t0).Seconds()
			e.Crash()
			t1 := p.Now()
			if err := e.Recover(p); err != nil {
				return err
			}
			row.RecoveryS = (p.Now() - t1).Seconds()
			row.RedoRecords = e.Stats().RedoApplied + e.Stats().RedoSkipped
			return nil
		})
		e.StopBackground()
		env.Shutdown()
		if err != nil {
			return RestartRow{}, err
		}
		return row, nil
	}
	lambdas := []float64{0.1, 0.9}
	rows, err := RunGrid(2*len(lambdas), func(i int) (RestartRow, error) {
		return measure(i/len(lambdas) == 1, lambdas[i%len(lambdas)])
	})
	return rows, err
}

// RestartRows is the checkpoint-policy × λ sweep.
type RestartRows []RestartRow

// Print renders the checkpoint/recovery tradeoff.
func (rows RestartRows) Print(w io.Writer) {
	fmt.Fprintln(w, "Checkpoint policy vs restart time (§2.3.3): LC on TPC-C 2K")
	fmt.Fprintf(w, "%-8s %6s %14s %12s %12s\n", "policy", "λ", "checkpoint", "recovery", "redo recs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %5.0f%% %13.3fs %11.3fs %12d\n",
			r.Policy, r.Lambda*100, r.CheckpointS, r.RecoveryS, r.RedoRecords)
	}
}
