package harness

import (
	"fmt"
	"time"

	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
	"turbobp/internal/workload"
)

// pid aliases the page id type for harness-internal helpers.
type pid = page.ID

// TPCHResult holds one design's TPC-H metrics at one scale factor.
type TPCHResult struct {
	Design     ssd.Design
	SF         int
	Power      float64
	Throughput float64
	QphH       float64
	PowerSecs  float64 // elapsed wall time of the power test
	ThruSecs   float64 // elapsed wall time of the throughput test
}

// RunTPCH runs the power test followed by the throughput test (§4.4) for
// one design at one scale factor.
func RunTPCH(scale Scale, design ssd.Design, sf int) (*TPCHResult, error) {
	cfg := scale.Config(design, TPCHSizesGB[sf])
	cfg.DirtyFraction = 0.01                   // λ = 1% (Table 2: E, H)
	cfg.CheckpointInterval = scale.Minutes(40) // as for TPC-E (§4.4)
	env := sim.NewEnv()
	e := newRunEngine(env, cfg)
	if err := e.FormatDB(); err != nil {
		return nil, err
	}
	h := workload.NewTPCH(sf, cfg.DBPages)

	res := &TPCHResult{Design: design, SF: sf}
	err := runToCompletion(env, scale.Hours(200), func(p *sim.Proc) error {
		t0 := p.Now()
		pr, err := h.RunPower(p, e)
		if err != nil {
			return err
		}
		// Scale component times back to paper-equivalent seconds so the
		// Power/Throughput/QphH magnitudes are comparable to Table 3.
		mult := float64(scale.Divisor)
		for i := range pr.QuerySecs {
			pr.QuerySecs[i] *= mult
		}
		for i := range pr.RefreshSecs {
			pr.RefreshSecs[i] *= mult
		}
		res.PowerSecs = (p.Now() - t0).Seconds() * mult
		res.Power = pr.Power(sf)
		elapsed, err := h.RunThroughput(p, e)
		if err != nil {
			return err
		}
		res.ThruSecs = elapsed.Seconds() * mult
		res.Throughput = h.Throughput(time.Duration(float64(elapsed) * mult))
		res.QphH = workload.QphH(res.Power, res.Throughput)
		return nil
	})
	e.StopBackground()
	env.Shutdown()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runToCompletion drives env until fn's process finishes or the virtual
// deadline passes.
func runToCompletion(env *sim.Env, deadline time.Duration, fn func(p *sim.Proc) error) error {
	done := false
	var err error
	env.Go("driver", func(p *sim.Proc) {
		err = fn(p)
		done = true
	})
	for !done && env.Now() < deadline {
		env.Run(env.Now() + 100*time.Millisecond)
	}
	if !done {
		return fmt.Errorf("harness: run did not complete within %v of virtual time", deadline)
	}
	return err
}

// Table3Result reproduces Table 3: power, throughput and QphH for every
// design at both scale factors.
type Table3Result struct {
	Rows []*TPCHResult
}

// Table3Designs is the paper's Table 3 column order.
var Table3Designs = []ssd.Design{ssd.LC, ssd.DW, ssd.TAC, ssd.NoSSD}

// RunTable3 reproduces Table 3 (and the QphH speedups feed Figure 5(g–h)).
func RunTable3(scale Scale, sfs []int) (*Table3Result, error) {
	nd := len(Table3Designs)
	rows, err := RunGrid(len(sfs)*nd, func(i int) (*TPCHResult, error) {
		return RunTPCH(scale, Table3Designs[i%nd], sfs[i/nd])
	})
	if err != nil {
		return nil, err
	}
	return &Table3Result{Rows: rows}, nil
}

// Fig5TPCH derives Figure 5(g–h) from Table 3: QphH speedups over noSSD.
func Fig5TPCH(scale Scale) (*Fig5Result, error) {
	t3, err := RunTable3(scale, []int{30, 100})
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{Benchmark: "tpch"}
	base := map[int]float64{}
	for _, r := range t3.Rows {
		if r.Design == ssd.NoSSD {
			base[r.SF] = r.QphH
		}
	}
	for _, r := range t3.Rows {
		label := fmt.Sprintf("%d SF (%.0fGB)", r.SF, TPCHSizesGB[r.SF])
		speedup := 0.0
		if base[r.SF] > 0 {
			speedup = r.QphH / base[r.SF]
		}
		res.Rows = append(res.Rows, SpeedupRow{Label: label, Design: r.Design, TPS: r.QphH, Speedup: speedup})
	}
	return res, nil
}
