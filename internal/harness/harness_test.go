package harness

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"turbobp/internal/bufpool"
	"turbobp/internal/engine"
	"turbobp/internal/fault"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
	"turbobp/internal/workload"
)

// aliases keep the Table 2 test readable.
var (
	simNewEnv = sim.NewEnv
	engineNew = engine.New
)

// tiny is an aggressive scale for fast harness unit tests.
var tiny = Scale{Divisor: 32768}

func TestScaleConversions(t *testing.T) {
	s := Scale{Divisor: 1024}
	if got := s.Pages(20); got != 2560 {
		t.Errorf("Pages(20GB) = %d, want 2560", got)
	}
	if got := s.Pages(140); got != 17920 {
		t.Errorf("Pages(140GB) = %d, want 17920", got)
	}
	if got := s.Hours(1); got != 3600*time.Second/1024 {
		t.Errorf("Hours(1) = %v", got)
	}
	if got := s.Minutes(60); got != s.Hours(1) {
		t.Errorf("Minutes(60) = %v != Hours(1)", got)
	}
	if Paper.Pages(20) != 2621440 {
		t.Errorf("paper-scale pool pages = %d", Paper.Pages(20))
	}
}

func TestScalePagesNeverZero(t *testing.T) {
	s := Scale{Divisor: 1 << 40}
	if s.Pages(0.001) < 1 {
		t.Error("Pages returned < 1")
	}
}

func TestConfigGeometryRatios(t *testing.T) {
	cfg := Default.Config(ssd.LC, 200)
	if cfg.DBPages != 10*int64(cfg.PoolPages) {
		t.Errorf("200GB DB / 20GB pool ratio broken: %d vs %d", cfg.DBPages, cfg.PoolPages)
	}
	if cfg.SSDFrames != 7*cfg.PoolPages {
		t.Errorf("140GB SSD / 20GB pool ratio broken: %d vs %d", cfg.SSDFrames, cfg.PoolPages)
	}
}

// TestScalePolicyIsPerRun runs the same fig5-tpcc cell (LC, 1K warehouses)
// under CFLRU and under the zero-value policy at the same time: the policy
// travels in the Scale each run holds, so neither sees the other's. Only
// CFLRU counts clean-first evictions.
func TestScalePolicyIsPerRun(t *testing.T) {
	scales := []Scale{{Divisor: 8192, Policy: bufpool.CFLRU}, {Divisor: 8192}}
	res := make([]*OLTPResult, len(scales))
	errs := make([]error, len(scales))
	var wg sync.WaitGroup
	for i, s := range scales {
		wg.Add(1)
		go func(i int, s Scale) {
			defer wg.Done()
			res[i], errs[i] = RunOLTP(buildOLTP(s, ssd.LC, "tpcc", TPCCSizesGB[1], nil))
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if n := res[0].Engine.Pool.CleanFirstEvict; n == 0 {
		t.Error("Scale{Policy: CFLRU}: no clean-first evictions, the run did not get its policy")
	}
	if n := res[1].Engine.Pool.CleanFirstEvict; n != 0 {
		t.Errorf("default Scale: %d clean-first evictions, the run saw another run's policy", n)
	}
}

func TestPaperSizeTables(t *testing.T) {
	if TPCCSizesGB[2] != 200 || TPCESizesGB[20] != 230 || TPCHSizesGB[100] != 160 {
		t.Error("paper database sizes drifted")
	}
}

func TestRunOLTPProducesSeries(t *testing.T) {
	run := buildOLTP(tiny, ssd.LC, "tpcc", 100, nil)
	r, err := RunOLTP(run)
	if err != nil {
		t.Fatal(err)
	}
	if r.Engine.Commits == 0 {
		t.Fatal("no commits")
	}
	if r.Commits.Len() == 0 {
		t.Error("empty commit series")
	}
	if r.FinalTPS <= 0 {
		t.Error("no final throughput")
	}
	if r.SSDHitRate < 0 || r.SSDHitRate > 1 {
		t.Errorf("hit rate = %v", r.SSDHitRate)
	}
	var pages float64
	for _, v := range r.DiskRead.Values() {
		pages += v
	}
	if pages == 0 {
		t.Error("sampler recorded no disk reads")
	}
}

func TestBuildOLTPAppliesPaperSettings(t *testing.T) {
	c := buildOLTP(tiny, ssd.LC, "tpcc", 100, nil)
	if c.Config.DirtyFraction != 0.5 {
		t.Errorf("TPC-C λ = %v, want 0.5", c.Config.DirtyFraction)
	}
	if c.Config.CheckpointInterval != 0 {
		t.Error("TPC-C checkpointing should be off")
	}
	e := buildOLTP(tiny, ssd.LC, "tpce", 115, nil)
	if e.Config.DirtyFraction != 0.01 {
		t.Errorf("TPC-E λ = %v, want 0.01", e.Config.DirtyFraction)
	}
	if e.Config.CheckpointInterval != tiny.Minutes(40) {
		t.Errorf("TPC-E checkpoint interval = %v", e.Config.CheckpointInterval)
	}
}

func TestFinalRateUsesTail(t *testing.T) {
	run := buildOLTP(tiny, ssd.NoSSD, "tpcc", 100, nil)
	r, err := RunOLTP(run)
	if err != nil {
		t.Fatal(err)
	}
	// FinalTPS must equal the mean rate of the last hour's buckets.
	n := int(tiny.Hours(1) / r.Bucket)
	if n < 1 {
		n = 1
	}
	rates := r.Commits.Rate()
	if len(rates) < n {
		n = len(rates)
	}
	var sum float64
	for _, v := range rates[len(rates)-n:] {
		sum += v
	}
	want := sum / float64(n)
	if math.Abs(want-r.FinalTPS) > 1e-9 {
		t.Errorf("FinalTPS = %v, want %v", r.FinalTPS, want)
	}
}

func TestRunTable1MatchesCalibration(t *testing.T) {
	r := RunTable1()
	checks := []struct {
		name      string
		got, want float64
	}{
		{"array rand read", r.ArrayRandRead, 1015},
		{"array seq read", r.ArraySeqRead, 26370},
		{"array rand write", r.ArrayRandWrite, 895},
		{"array seq write", r.ArraySeqWrite, 9463},
		{"ssd rand read", r.SSDRandRead, 12182},
		{"ssd seq read", r.SSDSeqRead, 15980},
		{"ssd rand write", r.SSDRandWrite, 12374},
		{"ssd seq write", r.SSDSeqWrite, 14965},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want)/c.want > 0.05 {
			t.Errorf("%s = %.0f, want %.0f ±5%%", c.name, c.got, c.want)
		}
	}
}

func TestRunTPCHSmoke(t *testing.T) {
	r, err := RunTPCH(tiny, ssd.DW, 30)
	if err != nil {
		t.Fatal(err)
	}
	if r.Power <= 0 || r.Throughput <= 0 || r.QphH <= 0 {
		t.Errorf("result = %+v", r)
	}
	if r.QphH > r.Power && r.QphH > r.Throughput {
		t.Error("QphH must lie between power and throughput")
	}
}

func TestFig5SpeedupsRelativeToNoSSD(t *testing.T) {
	r, err := fig5OLTP(tiny, "tpcc", []int{1}, TPCCSizesGB, "K warehouse")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(Fig5Designs) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Design == ssd.NoSSD && math.Abs(row.Speedup-1) > 1e-9 {
			t.Errorf("noSSD speedup = %v", row.Speedup)
		}
		if row.Design == ssd.LC && row.Speedup <= 1 {
			t.Errorf("LC speedup = %v, want > 1", row.Speedup)
		}
	}
}

func TestExperimentsRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Description == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "fig5-tpcc", "fig5-tpce", "fig5-tpch",
		"fig6", "fig7", "fig8", "fig9", "table3", "cw", "tacwaste", "classify"} {
		if !ids[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
	if _, ok := FindExperiment("table1"); !ok {
		t.Error("FindExperiment(table1) failed")
	}
	if _, ok := FindExperiment("nope"); ok {
		t.Error("FindExperiment(nope) succeeded")
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	var buf bytes.Buffer
	RunTable1().Print(&buf)
	if !strings.Contains(buf.String(), "Table 1") {
		t.Error("table1 render empty")
	}
	buf.Reset()
	(&Fig5Result{Benchmark: "tpcc", Rows: []SpeedupRow{{Label: "x", Design: ssd.LC, TPS: 5, Speedup: 2}}}).Print(&buf)
	if !strings.Contains(buf.String(), "2.00X") {
		t.Errorf("fig5 render: %q", buf.String())
	}
	buf.Reset()
	(&TimelineResult{Title: "tl", Bucket: time.Second,
		Curves: map[string][]float64{"a": {1, 2}}, Order: []string{"a"}}).Print(&buf)
	if !strings.Contains(buf.String(), "tl") {
		t.Error("timeline render empty")
	}
	buf.Reset()
	(&IOTrafficResult{Bucket: time.Second, DiskReadMB: []float64{1}}).Print(&buf)
	if !strings.Contains(buf.String(), "disk-read") {
		t.Error("fig8 render empty")
	}
	buf.Reset()
	(&ClassifyResult{ReadAheadAccuracy: 0.82, DistanceAccuracy: 0.51}).Print(&buf)
	if !strings.Contains(buf.String(), "82.0%") {
		t.Errorf("classify render: %q", buf.String())
	}
	buf.Reset()
	TACWasteRows{{Label: "1K", InvalidPages: 10, WastedGB: 1}}.Print(&buf)
	if !strings.Contains(buf.String(), "1K") {
		t.Error("tacwaste render empty")
	}
	buf.Reset()
	(&CWResult{CWTPS: 1, DWTPS: 2, LCTPS: 2, SlowerThanDW: 0.5, SlowerThanLC: 0.5}).Print(&buf)
	if !strings.Contains(buf.String(), "50.0% slower") {
		t.Errorf("cw render: %q", buf.String())
	}
	buf.Reset()
	(&Table3Result{Rows: []*TPCHResult{{Design: ssd.LC, SF: 30, Power: 1, Throughput: 2, QphH: 1.4}}}).Print(&buf)
	if !strings.Contains(buf.String(), "30SF") {
		t.Error("table3 render empty")
	}
}

func TestMBpsConversion(t *testing.T) {
	run := buildOLTP(tiny, ssd.NoSSD, "tpcc", 100, nil)
	r, err := RunOLTP(run)
	if err != nil {
		t.Fatal(err)
	}
	mb := MBps(r.DiskRead)
	rates := r.DiskRead.Rate()
	for i := range mb {
		want := rates[i] * PageBytes / (1 << 20)
		if math.Abs(mb[i]-want) > 1e-9 {
			t.Fatalf("MBps[%d] = %v, want %v", i, mb[i], want)
		}
	}
}

func TestRunClassifySmoke(t *testing.T) {
	r, err := RunClassify(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if r.ReadAheadAccuracy <= r.DistanceAccuracy {
		t.Errorf("read-ahead (%.2f) should beat distance (%.2f)",
			r.ReadAheadAccuracy, r.DistanceAccuracy)
	}
}

// TestTable2Defaults pins the paper's Table 2 parameter values.
func TestTable2Defaults(t *testing.T) {
	cfg := Default.Config(ssd.LC, 200)
	run := buildOLTP(Default, ssd.LC, "tpcc", 200, nil)
	if run.Config.DirtyFraction != 0.5 {
		t.Errorf("λ (TPC-C) = %v, want 0.5", run.Config.DirtyFraction)
	}
	runE := buildOLTP(Default, ssd.LC, "tpce", 230, nil)
	if runE.Config.DirtyFraction != 0.01 {
		t.Errorf("λ (TPC-E) = %v, want 0.01", runE.Config.DirtyFraction)
	}
	// Engine-level defaults come from the ssd manager's own defaulting;
	// spot-check through a built manager.
	env := simNewEnv()
	e := engineNew(env, cfg)
	m := e.SSD().Config()
	if m.FillThreshold != 0.95 {
		t.Errorf("τ = %v, want 0.95", m.FillThreshold)
	}
	if m.Throttle != 100 {
		t.Errorf("μ = %d, want 100", m.Throttle)
	}
	if m.Partitions != 16 {
		t.Errorf("N = %d, want 16", m.Partitions)
	}
	if m.GroupClean != 32 {
		t.Errorf("α = %d, want 32", m.GroupClean)
	}
	if m.SSDFrames != int(Default.Pages(140)) {
		t.Errorf("S = %d, want %d", m.SSDFrames, Default.Pages(140))
	}
	env.Shutdown()
}

// TestAllExperimentsRunAtTinyScale executes every registered experiment
// end-to-end at divisor 16384, half the goldens' scale (TestGoldenHashes
// already runs each one at 8192): every runner and renderer must still
// complete and print at a geometry below the committed one. (At 32768 the
// TPC-H scans no longer fit the buffer pool.)
func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short mode")
	}
	scale := Scale{Divisor: 16384}
	for _, exp := range Experiments() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			res, err := exp.Run(scale)
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			var buf bytes.Buffer
			if res.Print(&buf); buf.Len() == 0 {
				t.Errorf("%s produced no output", exp.ID)
			}
		})
	}
}

// TestRegistryUnderCFLRU runs every registry experiment with a CFLRU
// memory pool at divisor 8192: each must finish without error, and the
// faults and corrupt verdicts must pass. The goldens run LRU-2 only; this
// runs the clean-first list through every experiment, the crash,
// recovery, SSD-loss and repair ones included.
func TestRegistryUnderCFLRU(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short mode")
	}
	if err := runExperiments(Experiments(), Scale{Divisor: 8192, Policy: bufpool.CFLRU}, io.Discard, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPaperShapeTPCC2K is the reproduction's headline regression guard:
// on the 2K-warehouse TPC-C configuration the design ordering must be
// LC >> DW > TAC > noSSD, with LC at least 4X over noSSD and at least
// 2X over DW — well inside the margins of the paper's 9.4X / 5.1X.
func TestPaperShapeTPCC2K(t *testing.T) {
	if testing.Short() {
		t.Skip("full 10-hour (scaled) runs")
	}
	tps := map[ssd.Design]float64{}
	for _, d := range Fig5Designs {
		r, err := RunOLTP(buildOLTP(Bench, d, "tpcc", TPCCSizesGB[2], nil))
		if err != nil {
			t.Fatal(err)
		}
		tps[d] = r.FinalTPS
	}
	if !(tps[ssd.LC] > tps[ssd.DW] && tps[ssd.DW] > tps[ssd.TAC] && tps[ssd.TAC] > tps[ssd.NoSSD]) {
		t.Errorf("ordering broken: LC=%.0f DW=%.0f TAC=%.0f noSSD=%.0f",
			tps[ssd.LC], tps[ssd.DW], tps[ssd.TAC], tps[ssd.NoSSD])
	}
	if tps[ssd.LC] < 4*tps[ssd.NoSSD] {
		t.Errorf("LC speedup %.1fX < 4X", tps[ssd.LC]/tps[ssd.NoSSD])
	}
	if tps[ssd.LC] < 2*tps[ssd.DW] {
		t.Errorf("LC/DW ratio %.1fX < 2X", tps[ssd.LC]/tps[ssd.DW])
	}
}

// TestPaperShapeTPCEPeak guards the §4.3 working-set crossover: the TPC-E
// speedup peaks at 20K customers (working set ≈ SSD) and collapses at 40K.
func TestPaperShapeTPCEPeak(t *testing.T) {
	if testing.Short() {
		t.Skip("full 10-hour (scaled) runs")
	}
	speedup := map[int]float64{}
	for _, size := range []int{10, 20, 40} {
		base, err := RunOLTP(buildOLTP(Bench, ssd.NoSSD, "tpce", TPCESizesGB[size], nil))
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunOLTP(buildOLTP(Bench, ssd.DW, "tpce", TPCESizesGB[size], nil))
		if err != nil {
			t.Fatal(err)
		}
		speedup[size] = r.FinalTPS / base.FinalTPS
	}
	if speedup[40] >= speedup[20] || speedup[40] >= speedup[10] {
		t.Errorf("40K speedup (%.1fX) should be the smallest: 10K=%.1fX 20K=%.1fX",
			speedup[40], speedup[10], speedup[20])
	}
	if speedup[20] < 2 {
		t.Errorf("20K speedup %.1fX implausibly low", speedup[20])
	}
}

// TestFig5OrderingAtDivisor256 checks the headline ordering at a scale 32×
// larger than the goldens': in every Figure 5(a–c) group (1K, 2K and 4K
// warehouses) TPC-C throughput orders LC > DW > TAC > noSSD at divisor 256,
// as it does at 8192 and in the paper.
func TestFig5OrderingAtDivisor256(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Figure 5(a-c) at divisor 256 (~8 s)")
	}
	r, err := Fig5TPCC(Scale{Divisor: 256})
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]map[ssd.Design]float64{}
	for _, row := range r.Rows {
		if groups[row.Label] == nil {
			groups[row.Label] = map[ssd.Design]float64{}
		}
		groups[row.Label][row.Design] = row.TPS
	}
	if len(groups) != 3 {
		t.Fatalf("%d Figure 5(a-c) groups, want 3", len(groups))
	}
	for label, tps := range groups {
		if !(tps[ssd.LC] > tps[ssd.DW] && tps[ssd.DW] > tps[ssd.TAC] && tps[ssd.TAC] > tps[ssd.NoSSD]) {
			t.Errorf("%s: ordering broken at divisor 256: LC=%.0f DW=%.0f TAC=%.0f noSSD=%.0f",
				label, tps[ssd.LC], tps[ssd.DW], tps[ssd.TAC], tps[ssd.NoSSD])
		}
	}
}

// TestCSVExportWellFormed checks each CSV exporter produces parseable
// output with consistent column counts.
func TestCSVExportWellFormed(t *testing.T) {
	fig5 := &Fig5Result{Benchmark: "x", Rows: []SpeedupRow{
		{Label: "a", Design: ssd.LC, TPS: 10, Speedup: 2},
		{Label: "a", Design: ssd.NoSSD, TPS: 5, Speedup: 1},
	}}
	tl := &TimelineResult{Bucket: time.Second, Order: []string{"A", "B"},
		Curves: map[string][]float64{"A": {1, 2, 3}, "B": {4, 5}}}
	io8 := &IOTrafficResult{Bucket: time.Second,
		DiskReadMB: []float64{1, 2}, DiskWriteMB: []float64{3},
		SSDReadMB: []float64{4, 5}, SSDWriteMB: []float64{6, 7}}
	t3 := &Table3Result{Rows: []*TPCHResult{{Design: ssd.LC, SF: 30, Power: 1, Throughput: 2, QphH: 1.4}}}

	check := func(name string, write func(io.Writer) error, wantRows, wantCols int) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		recs, err := csv.NewReader(&buf).ReadAll()
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if len(recs) != wantRows {
			t.Errorf("%s: %d rows, want %d", name, len(recs), wantRows)
		}
		for i, rec := range recs {
			if len(rec) != wantCols {
				t.Errorf("%s: row %d has %d cols, want %d", name, i, len(rec), wantCols)
			}
		}
	}
	check("fig5", fig5.WriteCSV, 3, 4)
	check("timeline", tl.WriteCSV, 4, 4)
	check("io", io8.WriteCSV, 3, 6)
	check("table3", t3.WriteCSV, 2, 5)
}

// TestResultForms pins the optional forms the registry discovers on each
// result type: exactly the eight figure ids have a CSV form (known before
// anything runs), and a failed matrix verdict comes out of RunAll as the
// experiment's error.
func TestResultForms(t *testing.T) {
	csvIDs := map[string]bool{"fig5-tpcc": true, "fig5-tpce": true, "fig5-tpch": true,
		"fig6": true, "fig7": true, "fig8": true, "fig9": true, "table3": true}
	for _, e := range Experiments() {
		if e.CSV != csvIDs[e.ID] {
			t.Errorf("%s: CSV form = %v, want %v", e.ID, e.CSV, csvIDs[e.ID])
		}
	}
	for _, id := range []string{"faults", "corrupt"} {
		e, _ := FindExperiment(id)
		var failed string
		run := e.Run
		e.Run = func(s Scale) (Result, error) {
			res, err := run(s)
			if err == nil {
				row := &res.(*MatrixResult).Rows[3]
				row.Pass, failed = false, row.Scenario
			}
			return res, err
		}
		var out bytes.Buffer
		err := runExperiments([]Experiment{e}, Scale{}, &out, nil)
		if err == nil || !strings.Contains(err.Error(), failed) || !strings.HasPrefix(err.Error(), id+": ") {
			t.Errorf("%s with one failed cell: RunAll error = %v, want one naming %s/%s", id, err, id, failed)
		}
	}
}

// TestRunOLTPKeepsNoLogHistory pins what a fault-free RunOLTP pass
// allocates. Its log keeps no durable records (newRunEngine), so a TPC-C
// 1K-warehouse LC cell at divisor 8192 — checkpointing off, every update
// retained until the run ends — allocates ~2.3 MB instead of the ~4.4 MB it
// takes with a retained log. The simulation is deterministic, so the
// figure does not depend on the GC.
func TestRunOLTPKeepsNoLogHistory(t *testing.T) {
	run := buildOLTP(Scale{Divisor: 8192}, ssd.LC, "tpcc", TPCCSizesGB[1], nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := RunOLTP(run)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if r.Engine.Commits == 0 {
		t.Fatal("no commits")
	}
	const limit = 33 << 20 / 10 // 3.3 MB
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("RunOLTP allocated %.2f MB", float64(got)/(1<<20))
	if got > limit {
		t.Errorf("RunOLTP allocated %.2f MB, want <= %.1f MB: is the log keeping its history again?",
			float64(got)/(1<<20), float64(limit)/(1<<20))
	}
}

// TestOLTPCellDispatchPin pins the scheduler on a real cell: the TPC-C
// 1K-warehouse LC cell at divisor 8192 dispatches 114 777 events and
// commits 5 347 transactions. The scheduler dispatches in (time, sequence)
// order and every earlier form of it produced these same figures, so a
// change to either number means the dispatch order moved.
func TestOLTPCellDispatchPin(t *testing.T) {
	run := buildOLTP(Scale{Divisor: 8192}, ssd.LC, "tpcc", TPCCSizesGB[1], nil)
	r, err := RunOLTP(run)
	if err != nil {
		t.Fatal(err)
	}
	const wantEvents, wantCommits = 114777, 5347
	if r.Events != wantEvents || r.Engine.Commits != wantCommits {
		t.Errorf("cell dispatched %d events and committed %d transactions, want %d and %d",
			r.Events, r.Engine.Commits, wantEvents, wantCommits)
	}
	// The CPU model's busy time is positive and no more than its 16
	// contexts held for the whole run.
	t.Logf("CPUBusyNanos = %d over %v", r.Engine.CPUBusyNanos, run.Duration)
	if busy, bound := r.Engine.CPUBusyNanos, int64(run.Duration)*16; busy <= 0 || busy > bound {
		t.Errorf("CPUBusyNanos = %d, want in (0, %d]", busy, bound)
	}
}

// TestIndexCellKeepsNoLogHistory is TestRunOLTPKeepsNoLogHistory for an
// index cell, whose engine newRunEngine builds too: one B+-tree point
// cell under LC at divisor 8192 allocated 16.8 MB when the cell built its
// engine with engine.New and kept its log, and allocates 13.4 MB without
// the log's history.
func TestIndexCellKeepsNoLogHistory(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cell, err := runIndexCell(Scale{Divisor: 8192}, ssd.LC, workload.IndexPoint)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Res.Ops == 0 {
		t.Fatal("no operations")
	}
	const limit = 15 << 20 // 15 MB
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("index cell allocated %.2f MB", float64(got)/(1<<20))
	if got > limit {
		t.Errorf("index cell allocated %.2f MB, want <= %.1f MB: is the log keeping its history again?",
			float64(got)/(1<<20), float64(limit)/(1<<20))
	}
}

// TestOLTPCellLiveBytesPerPage pins the live heap per accounted database
// page of the TPC-C 2K-warehouse LC cell at divisor 8192 (ROADMAP item
// 20(b)): the heap after a GC at the end of the run, engine still alive,
// less the heap after a GC before it, over the cell's 3 200 DB pages. It
// read 349 B/page when the SSD tier's clean and dirty heaps were separate
// LRU-2 caches, each frame's (prev, last) copied into an arena entry and
// into lazy-heap snapshot nodes; 249 B/page with heaps of frame indices
// over the frame table; and 238–240 B/page once the memory pool's LRU-2
// order also lived in its frame table (the cache's key index was an int32
// per DB page). The bound is 255 B.
func TestOLTPCellLiveBytesPerPage(t *testing.T) {
	run := buildOLTP(Scale{Divisor: 8192}, ssd.LC, "tpcc", TPCCSizesGB[2], nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	env := sim.NewEnv()
	defer env.Shutdown()
	e := newRunEngine(env, run.Config)
	if err := e.FormatDB(); err != nil {
		t.Fatal(err)
	}
	run.Workload.Start(env, e, func(time.Duration) {})
	env.Run(run.Duration)
	e.StopBackground()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	if e.Stats().Commits == 0 {
		t.Fatal("no commits")
	}
	const limit = 255 // bytes per DB page
	got := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(run.Config.DBPages)
	t.Logf("live heap %.1f B per DB page over %d pages", got, run.Config.DBPages)
	if got > limit {
		t.Errorf("live heap %.1f B per DB page, want <= %d: does a frame table's history have a second copy again?", got, limit)
	}
}

// TestRunOLTPEngineRefusesRecovery checks that a RunOLTP engine, whose log
// kept no records, cannot be crashed or recovered from that empty log: both
// panic, naming DiscardDurable. An engine built with a fault injector keeps
// its log, because injected faults are repaired from it.
func TestRunOLTPEngineRefusesRecovery(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "DiscardDurable") {
				t.Errorf("%s: panic %q, want one naming DiscardDurable", what, msg)
			}
		}()
		f()
	}
	cfg := buildOLTP(tiny, ssd.LC, "tpcc", 100, nil).Config
	env := sim.NewEnv()
	e := newRunEngine(env, cfg)
	if err := e.FormatDB(); err != nil {
		t.Fatal(err)
	}
	mustPanic("Crash", e.Crash)
	mustPanic("Recover", func() {
		env.Go("recover", func(p *sim.Proc) { _ = e.Recover(p) })
		env.Run(-1)
	})
	env.Shutdown()

	cfg.Faults = fault.New(1)
	env = sim.NewEnv()
	defer env.Shutdown()
	newRunEngine(env, cfg).Crash() // a faulted run's log is retained
}
