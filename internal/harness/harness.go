// Package harness reproduces the paper's evaluation: one experiment per
// table and figure, each producing the rows or series the paper reports.
//
// Everything is scaled by a single divisor (see Scale): database, memory
// pool and SSD sizes shrink together with the wall-clock "hour", so the
// ratios that govern every crossover in the paper — working set : memory
// pool : SSD pool, and fill time : run time — are preserved while a full
// 10-hour experiment completes in seconds of real time.
package harness

import (
	"time"

	"turbobp/internal/device"
	"turbobp/internal/engine"
	"turbobp/internal/metrics"
	"turbobp/internal/policy"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
	"turbobp/internal/workload"
)

// PageBytes is the accounted page size (the paper's 8 KB pages).
const PageBytes = 8192

// Scale maps paper-sized quantities onto simulation-sized ones.
type Scale struct {
	// Divisor shrinks bytes and seconds alike: 1 reproduces the paper's
	// full sizes (hours of virtual time, tens of millions of pages), 1024
	// is the default for the command-line harness, 8192 for benchmarks.
	Divisor int64
	// Policy is the cache policy of every engine built from this scale
	// (both tiers). The zero value is LRU-2, the paper's policy.
	Policy policy.Kind
	// FaultSeed is the seed the faults and corrupt matrices derive every
	// cell's fault schedule from (the -faultseed flag). Zero selects
	// 0x5EEDFA17.
	FaultSeed uint64
}

func (s Scale) faultSeed() uint64 {
	if s.FaultSeed == 0 {
		return 0x5EEDFA17
	}
	return s.FaultSeed
}

// Common scales.
var (
	Paper   = Scale{Divisor: 1}
	Default = Scale{Divisor: 1024}
	Bench   = Scale{Divisor: 8192}
)

// Pages converts a paper-scale size in GB to scaled pages.
func (s Scale) Pages(gb float64) int64 {
	p := int64(gb * float64(1<<30) / PageBytes / float64(s.Divisor))
	if p < 1 {
		p = 1
	}
	return p
}

// Hours converts paper-scale hours to scaled virtual time.
func (s Scale) Hours(h float64) time.Duration {
	return time.Duration(h * 3600 / float64(s.Divisor) * float64(time.Second))
}

// Minutes converts paper-scale minutes to scaled virtual time.
func (s Scale) Minutes(m float64) time.Duration { return s.Hours(m / 60) }

// Config builds the engine configuration for one design over a database of
// dbGB gigabytes, with the paper's 20 GB DRAM pool and 140 GB SSD pool.
func (s Scale) Config(design ssd.Design, dbGB float64) engine.Config {
	return engine.Config{
		Config: ssd.Config{
			Design:      design,
			Policy:      s.Policy,
			SSDFrames:   int(s.Pages(140)),
			PayloadSize: 64,
		},
		DBPages:   s.Pages(dbGB),
		PoolPages: int(s.Pages(20)),
	}
}

// Database sizes used in the paper's evaluation (§4.1.2).
var (
	// TPCCSizesGB maps warehouses (in thousands) to database GB.
	TPCCSizesGB = map[int]float64{1: 100, 2: 200, 4: 400}
	// TPCESizesGB maps customers (in thousands) to database GB.
	TPCESizesGB = map[int]float64{10: 115, 20: 230, 40: 415}
	// TPCHSizesGB maps scale factor to database GB.
	TPCHSizesGB = map[int]float64{30: 45, 100: 160}
)

// OLTPRun describes one OLTP measurement.
type OLTPRun struct {
	Scale    Scale
	Design   ssd.Design
	Workload workload.OLTP
	Config   engine.Config
	Duration time.Duration // total run length (virtual)
	Bucket   time.Duration // series bucket (the paper uses 6 minutes)
}

// OLTPResult is what one OLTP run yields.
type OLTPResult struct {
	Design    ssd.Design
	Bucket    time.Duration
	Commits   *metrics.Series // committed transactions per bucket
	DiskRead  *metrics.Series // disk pages read per bucket
	DiskWrite *metrics.Series
	SSDRead   *metrics.Series // SSD pages read per bucket
	SSDWrite  *metrics.Series

	FinalTPS   float64 // mean committed tx/s over the final "hour"
	SSDHitRate float64 // SSD hits / (hits+misses)
	Events     uint64  // logical simulation events dispatched during the run
	Engine     engine.Stats
	SSD        ssd.Stats
	SSDInvalid int // occupied-but-invalid frames at end (TAC waste)
	DirtySSD   int
}

// RunOLTP executes one measurement: build the engine, format the database,
// run the workload for Duration, and collect series and counters.
func RunOLTP(run OLTPRun) (*OLTPResult, error) {
	env := sim.NewEnv()
	e := newRunEngine(env, run.Config)
	if err := e.FormatDB(); err != nil {
		return nil, err
	}
	res := &OLTPResult{
		Design:    run.Design,
		Bucket:    run.Bucket,
		Commits:   metrics.NewSeries(run.Bucket),
		DiskRead:  metrics.NewSeries(run.Bucket),
		DiskWrite: metrics.NewSeries(run.Bucket),
		SSDRead:   metrics.NewSeries(run.Bucket),
		SSDWrite:  metrics.NewSeries(run.Bucket),
	}
	run.Workload.Start(env, e, func(t time.Duration) {
		res.Commits.Add(t, 1)
	})
	startSampler(env, e, run.Bucket, res)
	env.Run(run.Duration)
	e.StopBackground()

	res.Events = env.Dispatched()
	res.Engine = e.Stats()
	res.SSD = e.SSD().Stats()
	res.SSDInvalid = e.SSD().InvalidCount()
	res.DirtySSD = e.SSD().DirtyCount()
	if total := res.SSD.Hits + res.SSD.Misses; total > 0 {
		res.SSDHitRate = float64(res.SSD.Hits) / float64(total)
	}
	res.FinalTPS = finalRate(res.Commits, run.Scale.Hours(1))
	env.Shutdown()
	return res, nil
}

// newRunEngine builds the engine of every harness pass that runs, stops
// and reads statistics: RunOLTP, the index and policy cells, TPC-H, the
// classifier and trimming measurements. Such a pass never crashes,
// recovers or repairs, and only an injected fault could make it repair. So
// a fault-free pass's log keeps no durable records
// (wal.Log.DiscardDurable): with checkpointing effectively off, as for
// TPC-C, that history would otherwise hold a payload copy of every update
// of the run. The passes that crash or repair (warmrestart, restart,
// faults, corrupt) build their engines with engine.New.
func newRunEngine(env *sim.Env, cfg engine.Config) *engine.Engine {
	e := engine.New(env, cfg)
	if cfg.Faults == nil {
		e.Log().DiscardDurable()
	}
	return e
}

// finalRate averages a series' per-second rate over its last window (the
// paper's "average throughput achieved over the last hour of execution").
func finalRate(s *metrics.Series, window time.Duration) float64 {
	n := int(window / s.Width())
	if n < 1 {
		n = 1
	}
	return metrics.Mean(metrics.Tail(s.Rate(), n))
}

// startSampler records per-bucket device page transfer deltas.
func startSampler(env *sim.Env, e *engine.Engine, bucket time.Duration, res *OLTPResult) {
	env.Go("sampler", func(p *sim.Proc) {
		prevDisk := *e.DiskArray().Stats()
		var prevSSD device.Stats
		for {
			p.Sleep(bucket)
			t := p.Now() - 1 // attribute to the bucket that just ended
			d := *e.DiskArray().Stats()
			dd := metrics.Sub(d, prevDisk)
			prevDisk = d
			res.DiskRead.Add(t, float64(dd.ReadPages))
			res.DiskWrite.Add(t, float64(dd.WritePages))
			if dev := e.SSDDevice(); dev != nil {
				sd := *dev.Stats()
				ds := metrics.Sub(sd, prevSSD)
				prevSSD = sd
				res.SSDRead.Add(t, float64(ds.ReadPages))
				res.SSDWrite.Add(t, float64(ds.WritePages))
			}
		}
	})
}

// MBps converts a pages-per-bucket series to MB/s (8 KB accounted pages).
func MBps(s *metrics.Series) []float64 {
	rates := s.Rate()
	out := make([]float64, len(rates))
	for i, r := range rates {
		out[i] = r * PageBytes / (1 << 20)
	}
	return out
}

// buildOLTP assembles an OLTPRun for a benchmark kind at a given design.
func buildOLTP(scale Scale, design ssd.Design, kind string, dbGB float64, mod func(*engine.Config)) OLTPRun {
	cfg := scale.Config(design, dbGB)
	var wl workload.OLTP
	switch kind {
	case "tpcc":
		wl = workload.TPCC(cfg.DBPages)
		cfg.DirtyFraction = 0.5 // λ = 50% for TPC-C (Table 2)
		// Checkpointing is effectively turned off for TPC-C (§4.1.2).
	case "tpce":
		wl = workload.TPCE(cfg.DBPages)
		cfg.DirtyFraction = 0.01                   // λ = 1% (Table 2)
		cfg.CheckpointInterval = scale.Minutes(40) // recovery interval (§4.1.2)
	default:
		panic("harness: unknown workload " + kind)
	}
	if mod != nil {
		mod(&cfg)
	}
	return OLTPRun{
		Scale:    scale,
		Design:   design,
		Workload: wl,
		Config:   cfg,
		Duration: scale.Hours(10),
		Bucket:   scale.Minutes(6),
	}
}
