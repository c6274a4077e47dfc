package harness

import (
	"fmt"
	"time"

	"turbobp/internal/device"
	"turbobp/internal/engine"
	"turbobp/internal/metrics"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
)

// Fig5Designs is the design set the paper's Figure 5 compares (CW is
// omitted there, as in the paper's §4.1.1).
var Fig5Designs = []ssd.Design{ssd.NoSSD, ssd.DW, ssd.LC, ssd.TAC}

// SpeedupRow is one bar of a Figure 5 group.
type SpeedupRow struct {
	Label   string // e.g. "2K warehouse (200GB)"
	Design  ssd.Design
	TPS     float64 // absolute committed tx/s (or QphH for TPC-H)
	Speedup float64 // over noSSD
}

// Fig5Result holds one benchmark's speedup bars plus per-run details.
type Fig5Result struct {
	Benchmark string
	Rows      []SpeedupRow
	Details   map[string]*OLTPResult // "label/design"
}

// Fig5TPCC reproduces Figure 5(a–c): DW/LC/TAC speedups over noSSD on the
// 1K/2K/4K-warehouse TPC-C databases (update-intensive, λ=50%,
// checkpointing off), measured over the last hour of a 10-hour run.
func Fig5TPCC(scale Scale) (*Fig5Result, error) {
	return fig5OLTP(scale, "tpcc", []int{1, 2, 4}, TPCCSizesGB, "K warehouse")
}

// Fig5TPCE reproduces Figure 5(d–f): speedups on the 10K/20K/40K-customer
// TPC-E databases (read-intensive, λ=1%, 40-minute checkpoints).
func Fig5TPCE(scale Scale) (*Fig5Result, error) {
	return fig5OLTP(scale, "tpce", []int{10, 20, 40}, TPCESizesGB, "K customer")
}

func fig5OLTP(scale Scale, kind string, sizes []int, gbMap map[int]float64, unit string) (*Fig5Result, error) {
	// Every (size, design) run is independent: fan the whole grid out to
	// the worker pool, then assemble rows in the original order so the
	// noSSD baseline of each size group is in hand before its speedups.
	nd := len(Fig5Designs)
	outs, err := RunGrid(len(sizes)*nd, func(i int) (*OLTPResult, error) {
		return RunOLTP(buildOLTP(scale, Fig5Designs[i%nd], kind, gbMap[sizes[i/nd]], nil))
	})
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{Benchmark: kind, Details: map[string]*OLTPResult{}}
	for si, size := range sizes {
		label := fmt.Sprintf("%d%s (%.0fGB)", size, unit, gbMap[size])
		var base float64
		for di, design := range Fig5Designs {
			out := outs[si*nd+di]
			if design == ssd.NoSSD {
				base = out.FinalTPS
			}
			speedup := 0.0
			if base > 0 {
				speedup = out.FinalTPS / base
			}
			res.Rows = append(res.Rows, SpeedupRow{Label: label, Design: design, TPS: out.FinalTPS, Speedup: speedup})
			res.Details[label+"/"+design.String()] = out
		}
	}
	return res, nil
}

// TimelineResult is one Figure 6/7/9-style chart: throughput over time for
// several curves.
type TimelineResult struct {
	Title  string
	Bucket time.Duration
	Curves map[string][]float64 // curve name -> tx/s per bucket (3-pt moving average)
	Order  []string
}

// Fig6 reproduces Figure 6: 10-hour throughput timelines for TPC-C 2K/4K
// and TPC-E 20K/40K under LC, DW, TAC and noSSD (six-minute buckets,
// three-point moving average).
func Fig6(scale Scale) (Timelines, error) {
	specs := []struct {
		kind  string
		size  int
		gbMap map[int]float64
		title string
	}{
		{"tpcc", 2, TPCCSizesGB, "(a) TPC-C 2K warehouses (200GB)"},
		{"tpcc", 4, TPCCSizesGB, "(b) TPC-C 4K warehouses (400GB)"},
		{"tpce", 20, TPCESizesGB, "(c) TPC-E 20K customers (230GB)"},
		{"tpce", 40, TPCESizesGB, "(d) TPC-E 40K customers (415GB)"},
	}
	designs := []ssd.Design{ssd.LC, ssd.DW, ssd.TAC, ssd.NoSSD}
	rs, err := RunGrid(len(specs)*len(designs), func(i int) (*OLTPResult, error) {
		sp := specs[i/len(designs)]
		return RunOLTP(buildOLTP(scale, designs[i%len(designs)], sp.kind, sp.gbMap[sp.size], nil))
	})
	if err != nil {
		return nil, err
	}
	var out Timelines
	for si, sp := range specs {
		tr := &TimelineResult{Title: sp.title, Curves: map[string][]float64{}}
		for di, design := range designs {
			r := rs[si*len(designs)+di]
			tr.Bucket = r.Bucket
			tr.Curves[design.String()] = metrics.MovingAvg(r.Commits.Rate(), 3)
			tr.Order = append(tr.Order, design.String())
		}
		out = append(out, tr)
	}
	return out, nil
}

// Fig7 reproduces Figure 7: the effect of the LC dirty fraction λ
// (10%/50%/90%) on the TPC-C 4K-warehouse database.
func Fig7(scale Scale) (*TimelineResult, error) {
	tr := &TimelineResult{Title: "LC dirty-fraction sweep, TPC-C 4K warehouses", Curves: map[string][]float64{}}
	lambdas := []float64{0.9, 0.5, 0.1}
	rs, err := RunGrid(len(lambdas), func(i int) (*OLTPResult, error) {
		lambda := lambdas[i]
		return RunOLTP(buildOLTP(scale, ssd.LC, "tpcc", TPCCSizesGB[4], func(c *engine.Config) {
			c.DirtyFraction = lambda
		}))
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rs {
		name := fmt.Sprintf("LC (λ=%.0f%%)", lambdas[i]*100)
		tr.Bucket = r.Bucket
		tr.Curves[name] = metrics.MovingAvg(r.Commits.Rate(), 3)
		tr.Order = append(tr.Order, name)
	}
	return tr, nil
}

// IOTrafficResult is Figure 8: read/write bandwidth over time for the
// disks and the SSD.
type IOTrafficResult struct {
	Bucket                                         time.Duration
	DiskReadMB, DiskWriteMB, SSDReadMB, SSDWriteMB []float64
}

// Fig8 reproduces Figure 8: I/O traffic to the disks and the SSD during a
// DW run on the TPC-E 20K-customer database.
func Fig8(scale Scale) (*IOTrafficResult, error) {
	r, err := RunOLTP(buildOLTP(scale, ssd.DW, "tpce", TPCESizesGB[20], nil))
	if err != nil {
		return nil, err
	}
	return &IOTrafficResult{
		Bucket:      r.Bucket,
		DiskReadMB:  MBps(r.DiskRead),
		DiskWriteMB: MBps(r.DiskWrite),
		SSDReadMB:   MBps(r.SSDRead),
		SSDWriteMB:  MBps(r.SSDWrite),
	}, nil
}

// Fig9 reproduces Figure 9: the effect of the checkpoint interval (40
// minutes vs 5 hours) on DW and LC over the TPC-E 20K-customer database,
// run for 13 hours. For the 5-hour interval LC's λ is raised from 1% to
// 50%, as in the paper.
func Fig9(scale Scale) (Timelines, error) {
	designs := []ssd.Design{ssd.DW, ssd.LC}
	intervals := []struct {
		name   string
		mins   float64
		lambda float64
	}{
		{"40 mins", 40, 0.01},
		{"5 hours", 300, 0.5},
	}
	rs, err := RunGrid(len(designs)*len(intervals), func(i int) (*OLTPResult, error) {
		iv := intervals[i%len(intervals)]
		run := buildOLTP(scale, designs[i/len(intervals)], "tpce", TPCESizesGB[20], func(c *engine.Config) {
			c.CheckpointInterval = scale.Minutes(iv.mins)
			c.DirtyFraction = iv.lambda
		})
		run.Duration = scale.Hours(13)
		return RunOLTP(run)
	})
	if err != nil {
		return nil, err
	}
	var out Timelines
	for di, design := range designs {
		tr := &TimelineResult{Title: fmt.Sprintf("(%s) checkpoint interval", design), Curves: map[string][]float64{}}
		for ii, iv := range intervals {
			r := rs[di*len(intervals)+ii]
			tr.Bucket = r.Bucket
			tr.Curves[iv.name] = metrics.MovingAvg(r.Commits.Rate(), 3)
			tr.Order = append(tr.Order, iv.name)
		}
		out = append(out, tr)
	}
	return out, nil
}

// CWResult quantifies §4.1.1: CW against DW and LC on TPC-E 20K.
type CWResult struct {
	CWTPS, DWTPS, LCTPS        float64
	SlowerThanDW, SlowerThanLC float64 // fractions, paper: 21.6% and 23.3%
}

// RunCW measures the clean-write design the paper drops after §4.1.1.
func RunCW(scale Scale) (*CWResult, error) {
	designs := []ssd.Design{ssd.CW, ssd.DW, ssd.LC}
	rs, err := RunGrid(len(designs), func(i int) (*OLTPResult, error) {
		return RunOLTP(buildOLTP(scale, designs[i], "tpce", TPCESizesGB[20], nil))
	})
	if err != nil {
		return nil, err
	}
	tps := map[ssd.Design]float64{}
	for i, d := range designs {
		tps[d] = rs[i].FinalTPS
	}
	res := &CWResult{CWTPS: tps[ssd.CW], DWTPS: tps[ssd.DW], LCTPS: tps[ssd.LC]}
	if res.DWTPS > 0 {
		res.SlowerThanDW = 1 - res.CWTPS/res.DWTPS
	}
	if res.LCTPS > 0 {
		res.SlowerThanLC = 1 - res.CWTPS/res.LCTPS
	}
	return res, nil
}

// TACWasteRow reports §2.5's wasted-space measurement for one database.
type TACWasteRow struct {
	Label        string
	InvalidPages int
	WastedGB     float64 // scaled back to paper-equivalent GB
}

// RunTACWaste measures the SSD space TAC wastes on logically-invalidated
// pages for the three TPC-C databases (paper: ~7.4/10.4/8.9 GB of 140 GB).
func RunTACWaste(scale Scale) (TACWasteRows, error) {
	warehouses := []int{1, 2, 4}
	rs, err := RunGrid(len(warehouses), func(i int) (*OLTPResult, error) {
		return RunOLTP(buildOLTP(scale, ssd.TAC, "tpcc", TPCCSizesGB[warehouses[i]], nil))
	})
	if err != nil {
		return nil, err
	}
	var rows TACWasteRows
	for i, wh := range warehouses {
		rows = append(rows, TACWasteRow{
			Label:        fmt.Sprintf("%dK warehouses", wh),
			InvalidPages: rs[i].SSDInvalid,
			WastedGB:     float64(rs[i].SSDInvalid) * PageBytes * float64(scale.Divisor) / (1 << 30),
		})
	}
	return rows, nil
}

// ClassifyResult compares the two sequential/random classifiers of §2.2.
type ClassifyResult struct {
	ReadAheadAccuracy float64 // paper: ~82%
	DistanceAccuracy  float64 // paper: ~51%
}

// RunClassify measures how accurately each classifier identifies the truly
// sequential reads of concurrent scan streams interleaved with random
// probes — the interleaving is what breaks the 64-page distance heuristic.
func RunClassify(scale Scale) (*ClassifyResult, error) {
	kinds := []engine.ClassifierKind{engine.ClassifyReadAhead, engine.ClassifyDistance}
	accs, err := RunGrid(len(kinds), func(i int) (float64, error) {
		kind := kinds[i]
		cfg := scale.Config(ssd.DW, 45)
		cfg.Classifier = kind
		// Model per-request interleaving of the paper's multi-user setting:
		// page-granular requests, with each range scan re-triggering the
		// read-ahead ramp.
		cfg.ReadAhead = 1
		cfg.ReadAheadRamp = 8
		cfg.ReadExpansion = -1 // warm-up expansion would distort the sample
		env := sim.NewEnv()
		e := newRunEngine(env, cfg)
		if err := e.FormatDB(); err != nil {
			return 0, err
		}
		// Two interleaved streams of moderate range scans (44 pages each,
		// so the 8-page ramp is a meaningful share, as in a real system's
		// short range scans)...
		const scanLen = 44
		for sstream := 0; sstream < 2; sstream++ {
			start := int64(sstream) * cfg.DBPages / 2
			limit := start + cfg.DBPages/2 - scanLen
			env.Go("scanner", func(p *sim.Proc) {
				pos := start
				for {
					if err := e.Scan(p, pageID(pos), scanLen); err != nil {
						panic(err.Error())
					}
					pos += scanLen
					if pos >= limit {
						pos = start
					}
				}
			})
		}
		// ...plus random probes.
		for w := 0; w < 8; w++ {
			w := w
			env.Go("prober", func(p *sim.Proc) {
				rng := uint64(77 + w)
				for {
					rng = rng*6364136223846793005 + 1442695040888963407
					if _, err := e.Get(p, pageID(int64(rng>>33)%cfg.DBPages)); err != nil {
						panic(err.Error())
					}
				}
			})
		}
		// Device speeds do not scale with the divisor, so sample for an
		// absolute window long enough for many scans at any scale.
		env.Run(2 * time.Second)
		e.StopBackground()
		s := e.Stats()
		acc := 0.0
		if totalSeq := s.TruthSeqLabelSeq + s.TruthSeqLabelRand; totalSeq > 0 {
			acc = float64(s.TruthSeqLabelSeq) / float64(totalSeq)
		}
		env.Shutdown()
		return acc, nil
	})
	if err != nil {
		return nil, err
	}
	return &ClassifyResult{ReadAheadAccuracy: accs[0], DistanceAccuracy: accs[1]}, nil
}

// Table1Result holds the measured device IOPS (reproducing Table 1).
type Table1Result struct {
	ArrayRandRead, ArraySeqRead, ArrayRandWrite, ArraySeqWrite float64
	SSDRandRead, SSDSeqRead, SSDRandWrite, SSDSeqWrite         float64
}

// RunTable1 measures the device models' sustainable 8KB IOPS, as Iometer
// measured the paper's hardware for Table 1.
func RunTable1() *Table1Result {
	res := &Table1Result{}
	res.ArrayRandRead = measureArrayIOPS(false, true)
	res.ArraySeqRead = measureArrayIOPS(false, false)
	res.ArrayRandWrite = measureArrayIOPS(true, true)
	res.ArraySeqWrite = measureArrayIOPS(true, false)
	res.SSDRandRead = measureSSDIOPS(false, true)
	res.SSDSeqRead = measureSSDIOPS(false, false)
	res.SSDRandWrite = measureSSDIOPS(true, true)
	res.SSDSeqWrite = measureSSDIOPS(true, false)
	return res
}

func measureSSDIOPS(write, random bool) float64 {
	env := sim.NewEnv()
	const capacity = 1 << 18
	dev := device.NewSSD(env, device.PaperSSDProfile(), capacity)
	workers := 4
	if !random {
		workers = 1 // interleaved streams would defeat sequential detection
	}
	return measureDevIOPS(env, dev, capacity, write, random, workers)
}

func measureArrayIOPS(write, random bool) float64 {
	env := sim.NewEnv()
	const capacity = 1 << 18
	arr := device.NewArray(env, device.PaperHDDProfile(), device.PaperArrayDisks, 64, capacity)
	if random {
		return measureDevIOPS(env, arr, capacity, write, true, device.PaperArrayDisks*16)
	}
	// Sequential: one streaming worker per disk, each walking its own
	// stripes.
	window := time.Second
	ops := 0
	buf := [][]byte{make([]byte, 64)}
	for d := 0; d < device.PaperArrayDisks; d++ {
		d := d
		env.Go("seq", func(p *sim.Proc) {
			unit := int64(64)
			pos := int64(d) * unit
			for {
				var err error
				if write {
					err = arr.Write(p, device.PageNum(pos), buf)
				} else {
					err = arr.Read(p, device.PageNum(pos), buf)
				}
				if err != nil {
					panic(err.Error())
				}
				if p.Now() > window {
					return
				}
				ops++
				pos++
				if pos%unit == 0 {
					pos += unit * (device.PaperArrayDisks - 1)
					if pos >= capacity {
						pos = int64(d) * unit
					}
				}
			}
		})
	}
	env.Run(-1)
	return float64(ops) / window.Seconds()
}

func measureDevIOPS(env *sim.Env, dev device.Device, capacity int64, write, random bool, workers int) float64 {
	window := time.Second
	ops := 0
	for w := 0; w < workers; w++ {
		w := w
		env.Go("io", func(p *sim.Proc) {
			rng := uint64(31 + w)
			pos := int64(w) * 911 % capacity
			buf := [][]byte{make([]byte, 64)}
			for {
				var pg int64
				if random {
					rng = rng*6364136223846793005 + 1442695040888963407
					pg = int64(rng>>33) % capacity
				} else {
					pg = pos
					pos = (pos + 1) % capacity
				}
				var err error
				if write {
					err = dev.Write(p, device.PageNum(pg), buf)
				} else {
					err = dev.Read(p, device.PageNum(pg), buf)
				}
				if err != nil {
					panic(err.Error())
				}
				if p.Now() > window {
					return
				}
				ops++
			}
		})
	}
	env.Run(-1)
	return float64(ops) / window.Seconds()
}

// pageID narrows an int64 to the page id type without importing page in
// every call site.
func pageID(v int64) pid { return pid(v) }
