package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"turbobp/internal/engine"
	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
)

func TestScatterIsPermutation(t *testing.T) {
	prop := func(nRaw uint16) bool {
		n := int64(nRaw%500) + 1
		seen := make(map[page.ID]bool, n)
		for i := int64(0); i < n; i++ {
			seen[scatter(i, n)] = true
		}
		return len(seen) == int(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestScatterInRange(t *testing.T) {
	const n = 1000
	for i := int64(0); i < n; i++ {
		p := scatter(i, n)
		if p < 0 || p >= n {
			t.Fatalf("scatter(%d) = %d out of range", i, p)
		}
	}
}

func TestPickRespectsSkew(t *testing.T) {
	o := TPCC(10000)
	rng := rand.New(rand.NewSource(1))
	hotPages := map[page.ID]bool{}
	for i := int64(0); i < 2000; i++ { // tier 0 = first 20% of indices
		hotPages[scatter(i, o.DBPages)] = true
	}
	hot := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		if hotPages[o.pick(rng, -1)] {
			hot++
		}
	}
	frac := float64(hot) / draws
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("hot fraction = %.3f, want ~0.75", frac)
	}
}

func TestPickTierRestriction(t *testing.T) {
	o := TPCE(10000)
	rng := rand.New(rand.NewSource(2))
	tier0 := map[page.ID]bool{}
	n0 := int64(o.Tiers[0].PageFrac * float64(o.DBPages))
	for i := int64(0); i < n0; i++ {
		tier0[scatter(i, o.DBPages)] = true
	}
	for i := 0; i < 5000; i++ {
		if !tier0[o.pick(rng, 0)] {
			t.Fatal("tier-0 pick left the tier")
		}
	}
}

func TestProfiles(t *testing.T) {
	c := TPCC(1 << 20)
	if c.UpdateFrac <= 0.3 || c.UpdateFrac >= 0.4 {
		t.Errorf("TPC-C update fraction = %v, want ~1/3", c.UpdateFrac)
	}
	e := TPCE(1 << 20)
	if e.UpdateFrac >= c.UpdateFrac/3 {
		t.Errorf("TPC-E update fraction %v not much lower than TPC-C's %v", e.UpdateFrac, c.UpdateFrac)
	}
	if e.UpdateTier != 0 {
		t.Error("TPC-E updates should concentrate on the hot tier")
	}
	var pages, access float64
	for _, tier := range e.Tiers {
		pages += tier.PageFrac
		access += tier.AccessFrac
	}
	if math.Abs(pages-1) > 1e-9 || math.Abs(access-1) > 1e-9 {
		t.Errorf("TPC-E tiers don't sum to 1: pages=%v access=%v", pages, access)
	}
}

func TestOLTPDriverCommits(t *testing.T) {
	env := sim.NewEnv()
	e := engine.New(env, engine.Config{
		Config:  ssd.Config{Design: ssd.LC, SSDFrames: 64, PayloadSize: 32},
		DBPages: 512, PoolPages: 32,
	})
	if err := e.FormatDB(); err != nil {
		t.Fatal(err)
	}
	wl := TPCC(512)
	wl.Workers = 4
	var commits int
	wl.Start(env, e, func(time.Duration) { commits++ })
	env.Run(2 * time.Second)
	e.StopBackground()
	if commits == 0 {
		t.Fatal("no transactions committed")
	}
	if int64(commits) != e.Stats().Commits {
		t.Errorf("callback count %d != engine commits %d", commits, e.Stats().Commits)
	}
	if e.Stats().Updates == 0 {
		t.Error("no updates performed")
	}
	env.Shutdown()
}

func TestTPCHTableLayoutCoversDatabase(t *testing.T) {
	var sum float64
	for _, f := range tableLayout {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("table layout sums to %v", sum)
	}
	h := NewTPCH(30, 10000)
	var covered int64
	for tb := Table(0); tb < numTables; tb++ {
		start, n := h.tableRegion(tb)
		if int64(start) != covered && tb > 0 {
			// Regions must be adjacent in layout order.
			t.Errorf("table %d starts at %d, previous ended at %d", tb, start, covered)
		}
		covered = int64(start) + n
	}
	if covered > 10000+int64(numTables) {
		t.Errorf("regions overflow the database: %d", covered)
	}
}

func TestTPCHStreamsBySF(t *testing.T) {
	if NewTPCH(30, 1000).Streams != 4 {
		t.Error("30SF streams != 4")
	}
	if NewTPCH(100, 1000).Streams != 5 {
		t.Error("100SF streams != 5")
	}
}

func TestTPCHQuerySpecsPopulated(t *testing.T) {
	lookups := 0
	for q, spec := range queries {
		if len(spec.scans) == 0 && spec.lookupFrac == 0 {
			t.Errorf("q%d does no work", q+1)
		}
		if spec.lookupFrac > 0 {
			lookups++
		}
	}
	if lookups < 5 {
		t.Errorf("only %d queries have index lookups", lookups)
	}
}

func newTPCHEngine(t *testing.T) (*sim.Env, *engine.Engine) {
	t.Helper()
	env := sim.NewEnv()
	e := engine.New(env, engine.Config{
		Config:  ssd.Config{Design: ssd.DW, SSDFrames: 512, PayloadSize: 32},
		DBPages: 2048, PoolPages: 128,
	})
	if err := e.FormatDB(); err != nil {
		t.Fatal(err)
	}
	return env, e
}

func TestTPCHPowerTest(t *testing.T) {
	env, e := newTPCHEngine(t)
	h := NewTPCH(30, 2048)
	var res PowerResult
	done := false
	env.Go("power", func(p *sim.Proc) {
		var err error
		res, err = h.RunPower(p, e)
		if err != nil {
			t.Error(err)
		}
		done = true
	})
	for !done {
		env.Run(env.Now() + time.Second)
	}
	e.StopBackground()
	for q, s := range res.QuerySecs {
		if s <= 0 {
			t.Errorf("q%d took %vs", q+1, s)
		}
	}
	if res.RefreshSecs[0] <= 0 || res.RefreshSecs[1] <= 0 {
		t.Errorf("refresh times = %v", res.RefreshSecs)
	}
	if p := res.Power(30); p <= 0 {
		t.Errorf("power = %v", p)
	}
	env.Shutdown()
}

func TestTPCHThroughputTest(t *testing.T) {
	env, e := newTPCHEngine(t)
	h := NewTPCH(30, 2048)
	h.Streams = 2
	var elapsed time.Duration
	done := false
	env.Go("thru", func(p *sim.Proc) {
		var err error
		elapsed, err = h.RunThroughput(p, e)
		if err != nil {
			t.Error(err)
		}
		done = true
	})
	for !done {
		env.Run(env.Now() + time.Second)
	}
	e.StopBackground()
	if elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	if th := h.Throughput(elapsed); th <= 0 {
		t.Errorf("throughput = %v", th)
	}
	env.Shutdown()
}

func TestPowerMetricFormula(t *testing.T) {
	var r PowerResult
	for i := range r.QuerySecs {
		r.QuerySecs[i] = 2 // all queries 2s
	}
	r.RefreshSecs = [2]float64{2, 2}
	// geomean = 2 => power = 3600*SF/2
	if got := r.Power(10); math.Abs(got-18000) > 1e-6 {
		t.Errorf("Power = %v, want 18000", got)
	}
}

func TestQphHIsGeometricMean(t *testing.T) {
	if got := QphH(100, 400); math.Abs(got-200) > 1e-9 {
		t.Errorf("QphH = %v, want 200", got)
	}
}

func TestClampSecs(t *testing.T) {
	if clampSecs(0) != 1e-6 || clampSecs(-1) != 1e-6 || clampSecs(5) != 5 {
		t.Error("clampSecs misbehaves")
	}
}
