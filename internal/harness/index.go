package harness

import (
	"fmt"
	"io"

	"turbobp/internal/device"
	"turbobp/internal/engine"
	"turbobp/internal/metrics"
	"turbobp/internal/policy"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
	"turbobp/internal/workload"
	"turbobp/storage"
)

// This file is the `bpesim index` experiment: real B+-tree and heapfile
// code driven through the SSD tier, so the page access pattern emerges
// from structure traversal instead of a synthetic distribution (ROADMAP
// item 3; docs/WORKLOADS.md describes each mix). Every cell runs one
// design × one traversal mix through the engine's storage.Store adapter
// (engine.ProcStore) and reports hit rates, SSD traffic, and the
// per-structure stats (height, splits, pages touched per op) the
// structures themselves produce.

// indexDesigns are the matrix columns: every design with an SSD cache,
// the CW/DW/LC/TAC comparison ROADMAP item 3 asks for.
var indexDesigns = []ssd.Design{ssd.CW, ssd.DW, ssd.LC, ssd.TAC}

// indexKinds are the matrix rows: the five traversal-driven mixes.
var indexKinds = []workload.IndexKind{
	workload.IndexPoint,
	workload.IndexRange,
	workload.IndexInsert,
	workload.IndexHeapScan,
	workload.IndexMixed,
}

// IndexCell is one design × mix measurement.
type IndexCell struct {
	Design ssd.Design
	Kind   workload.IndexKind
	Mix    workload.IndexMix
	Res    *workload.IndexResult

	PoolHitPct float64 // measured-phase buffer-pool hit rate
	SSDHitPct  float64 // measured-phase SSD hit rate (of pool misses)
	SSDReads   int64   // SSD device pages read during the measured phase
	SSDWrites  int64   // SSD device pages written during the measured phase
	PagesPerOp float64 // logical page accesses per completed operation
}

// IndexMatrixResult is the rendered design × mix grid.
type IndexMatrixResult struct {
	Rows  int // rows loaded per shared structure
	Ops   int // operations per worker
	Cells []IndexCell
}

// indexMix builds the mix for one kind at one scale. Sizes shrink with
// the divisor but keep the ratios that make the tier interesting: the
// pool is far smaller than the structures, the SSD covers the hot set.
func indexMix(s Scale, kind workload.IndexKind) workload.IndexMix {
	rows := int(16 << 20 / s.Divisor) // 16384 at the default divisor 1024
	if rows < 1024 {
		rows = 1024
	}
	return workload.IndexMix{
		Kind:         kind,
		Workers:      8,
		Rows:         rows,
		OpsPerWorker: rows / 8,
		Span:         256,
		Seed:         0x1DE5 + int64(kind),
	}
}

// indexConfig sizes the engine for a mix.
func indexConfig(design ssd.Design, m workload.IndexMix, pol policy.Kind) engine.Config {
	return engine.Config{
		Config: ssd.Config{
			Design:        design,
			Policy:        pol,
			SSDFrames:     m.Rows / 8,
			PayloadSize:   256, // B+-tree fan-out 15; ~11 records per heap page
			DirtyFraction: 0.1, // leaf churn wakes LC's cleaner early
		},
		DBPages:   int64(m.Rows) * 2,
		PoolPages: m.Rows / 64,
	}
}

// runIndexCell executes one cell: build the engine, run the mix through
// the Store adapter, and compute measured-phase rates.
func runIndexCell(s Scale, design ssd.Design, kind workload.IndexKind) (IndexCell, error) {
	mix := indexMix(s, kind)
	cell := IndexCell{Design: design, Kind: kind, Mix: mix}
	env := sim.NewEnv()
	e := newRunEngine(env, indexConfig(design, mix, s.Policy))
	if err := e.FormatDB(); err != nil {
		return cell, err
	}
	var alloc int64
	newStore := func(p *sim.Proc) storage.Store { return engine.NewProcStore(e, p, &alloc) }

	var loadEng engine.Stats
	var loadSSD ssd.Stats
	var loadDev device.Stats
	res := mix.Start(env, newStore,
		func() { // end of load: snapshot so rates cover the measured phase only
			loadEng = e.Stats()
			loadSSD = e.SSD().Stats()
			loadDev = *e.SSDDevice().Stats()
		},
		func() { e.StopBackground() })
	env.Run(-1)
	env.Shutdown()
	if res.Err != nil {
		return cell, fmt.Errorf("%s/%s: %w", design, kind, res.Err)
	}
	cell.Res = res

	eng := metrics.Sub(e.Stats(), loadEng)
	if eng.Reads > 0 {
		cell.PoolHitPct = 100 * float64(eng.PoolHits) / float64(eng.Reads)
	}
	sd := metrics.Sub(e.SSD().Stats(), loadSSD)
	if mh := sd.Hits + sd.Misses; mh > 0 {
		cell.SSDHitPct = 100 * float64(sd.Hits) / float64(mh)
	}
	dev := metrics.Sub(*e.SSDDevice().Stats(), loadDev)
	cell.SSDReads = dev.ReadPages
	cell.SSDWrites = dev.WritePages
	if res.Ops > 0 {
		cell.PagesPerOp = float64(eng.Reads) / float64(res.Ops)
	}
	return cell, nil
}

// RunIndex executes the full design × mix grid on the worker pool.
func RunIndex(s Scale) (*IndexMatrixResult, error) {
	n := len(indexKinds) * len(indexDesigns)
	cells, err := RunGrid(n, func(i int) (IndexCell, error) {
		kind := indexKinds[i/len(indexDesigns)]
		design := indexDesigns[i%len(indexDesigns)]
		return runIndexCell(s, design, kind)
	})
	if err != nil {
		return nil, err
	}
	m := indexMix(s, workload.IndexPoint)
	return &IndexMatrixResult{Rows: m.Rows, Ops: m.OpsPerWorker, Cells: cells}, nil
}

// Print renders the matrix grouped by workload.
func (r *IndexMatrixResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Index & heapfile workloads — traversal-driven matrix (%d rows, %d ops × 8 workers)\n", r.Rows, r.Ops)
	fmt.Fprintf(w, "%-9s %-5s %9s %9s %8s %8s %8s %8s %7s %7s\n",
		"workload", "design", "ops", "pool-hit", "ssd-hit", "ssd-rd", "ssd-wr", "pages/op", "height", "splits")
	last := workload.IndexKind(-1)
	for _, c := range r.Cells {
		if c.Kind != last && last >= 0 {
			fmt.Fprintln(w)
		}
		last = c.Kind
		fmt.Fprintf(w, "%-9s %-5s %9d %8.1f%% %7.1f%% %8d %8d %8.2f %7d %7d\n",
			c.Kind, c.Design, c.Res.Ops, c.PoolHitPct, c.SSDHitPct,
			c.SSDReads, c.SSDWrites, c.PagesPerOp, c.Res.Height, c.Res.Splits)
	}
}
