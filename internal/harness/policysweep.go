package harness

import (
	"fmt"
	"io"
	"time"

	"turbobp/internal/engine"
	"turbobp/internal/policy"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
	"turbobp/internal/workload"
	"turbobp/storage"
)

// This file is the `bpesim policy` experiment: the paper's LRU-2 against
// CFLRU (internal/policy) over every SSD design. Four workloads stress
// the policies differently — TPC-C is dirty-heavy (a third of accesses
// update, so CFLRU's clean-first eviction pays), TPC-E is read-heavy with
// a skewed hot set, and the two traversal mixes exercise structured
// access: the B+-tree/heapfile mixed mix and the scan-dominated heap-scan
// mix. Every cell builds its engine directly, so results are identical
// at any -parallel width; wall-clock timing goes to stderr via the
// standard experiment runner.

// policyWorkloads are the sweep's workload rows.
var policyWorkloads = []string{"tpcc", "tpce", "mixed", "scan"}

// PolicyCell is one workload × design × policy measurement.
type PolicyCell struct {
	Workload string
	Design   ssd.Design
	Policy   policy.Kind

	Ops        int64   // committed transactions (OLTP) or completed ops (index)
	PoolHitPct float64 // buffer-pool hit rate
	SSDHitPct  float64 // SSD hit rate (of pool misses)
	SSDReads   int64   // SSD device pages read
	SSDWrites  int64   // SSD device pages written
	DiskWrites int64   // disk array pages written
	WALWrites  int64   // WAL device pages written
	CleanFirst int64   // CFLRU evictions that skipped an older dirty page (pool + SSD tier)
}

// PolicySweepResult is the rendered workload × design × policy grid.
type PolicySweepResult struct {
	Rows  int // rows per index structure (index cells)
	Cells []PolicyCell
}

// policyOLTPCell runs one OLTP cell: the standard paper configuration for
// the workload at its mid-size database, shortened to two virtual hours.
func policyOLTPCell(s Scale, design ssd.Design, pol policy.Kind, kind string) (PolicyCell, error) {
	cell := PolicyCell{Workload: kind, Design: design, Policy: pol}
	var run OLTPRun
	switch kind {
	case "tpcc":
		run = buildOLTP(s, design, "tpcc", TPCCSizesGB[2], nil)
	default:
		run = buildOLTP(s, design, "tpce", TPCESizesGB[20], nil)
	}
	cfg := run.Config
	cfg.Policy = pol
	env := sim.NewEnv()
	e := newRunEngine(env, cfg)
	if err := e.FormatDB(); err != nil {
		return cell, err
	}
	run.Workload.Start(env, e, func(time.Duration) { cell.Ops++ })
	env.Run(s.Hours(2))
	e.StopBackground()
	fillPolicyCell(&cell, e)
	env.Shutdown()
	return cell, nil
}

// policyIndexCell runs one traversal cell, mirroring runIndexCell but
// measuring the policy counters alongside the rates. Rates cover the
// whole run, load phase included — both phases exercise the policy, and
// every policy sees the identical call sequence, so the comparison
// between policies is still apples-to-apples.
func policyIndexCell(s Scale, design ssd.Design, pol policy.Kind, kind workload.IndexKind, name string) (PolicyCell, error) {
	cell := PolicyCell{Workload: name, Design: design, Policy: pol}
	mix := indexMix(s, kind)
	env := sim.NewEnv()
	e := newRunEngine(env, indexConfig(design, mix, pol))
	if err := e.FormatDB(); err != nil {
		return cell, err
	}
	var alloc int64
	newStore := func(p *sim.Proc) storage.Store { return engine.NewProcStore(e, p, &alloc) }
	res := mix.Start(env, newStore, nil, func() { e.StopBackground() })
	env.Run(-1)
	env.Shutdown()
	if res.Err != nil {
		return cell, fmt.Errorf("%s/%s/%s: %w", design, kind, pol, res.Err)
	}
	cell.Ops = int64(res.Ops)
	fillPolicyCell(&cell, e)
	return cell, nil
}

// fillPolicyCell computes a cell's rates and policy counters from the
// engine's end-of-run statistics.
func fillPolicyCell(cell *PolicyCell, e *engine.Engine) {
	eng := e.Stats()
	if eng.Reads > 0 {
		cell.PoolHitPct = 100 * float64(eng.PoolHits) / float64(eng.Reads)
	}
	sd := e.SSD().Stats()
	if mh := sd.Hits + sd.Misses; mh > 0 {
		cell.SSDHitPct = 100 * float64(sd.Hits) / float64(mh)
	}
	dev := e.SSDDevice().Stats()
	cell.SSDReads = dev.ReadPages
	cell.SSDWrites = dev.WritePages
	if arr := e.DiskArray(); arr != nil {
		cell.DiskWrites = arr.Stats().WritePages
	}
	cell.WALWrites = e.LogDevice().Stats().WritePages
	cell.CleanFirst = eng.Pool.CleanFirstEvict + sd.Policy.CleanFirstEvict
}

// RunPolicySweep executes the full workload × design × policy grid on the
// worker pool.
func RunPolicySweep(s Scale) (*PolicySweepResult, error) {
	perWl := len(indexDesigns) * len(policy.Kinds)
	n := len(policyWorkloads) * perWl
	cells, err := RunGrid(n, func(i int) (PolicyCell, error) {
		wl := policyWorkloads[i/perWl]
		design := indexDesigns[i%perWl/len(policy.Kinds)]
		pol := policy.Kinds[i%len(policy.Kinds)]
		switch wl {
		case "tpcc", "tpce":
			return policyOLTPCell(s, design, pol, wl)
		case "mixed":
			return policyIndexCell(s, design, pol, workload.IndexMixed, wl)
		default:
			return policyIndexCell(s, design, pol, workload.IndexHeapScan, wl)
		}
	})
	if err != nil {
		return nil, err
	}
	return &PolicySweepResult{Rows: indexMix(s, workload.IndexMixed).Rows, Cells: cells}, nil
}

// Print renders the sweep grouped by workload and design.
func (r *PolicySweepResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Cache-policy sweep — %d designs × %d policies × %d workloads (2h virtual OLTP; %d-row index mixes)\n",
		len(indexDesigns), len(policy.Kinds), len(policyWorkloads), r.Rows)
	fmt.Fprintf(w, "%-8s %-6s %-8s %9s %9s %8s %9s %9s %9s %8s %7s\n",
		"workload", "design", "policy", "ops", "pool-hit", "ssd-hit",
		"ssd-rd", "ssd-wr", "disk-wr", "wal-wr", "cfirst")
	last := ""
	for _, c := range r.Cells {
		if c.Workload != last && last != "" {
			fmt.Fprintln(w)
		}
		last = c.Workload
		fmt.Fprintf(w, "%-8s %-6s %-8s %9d %8.1f%% %7.1f%% %9d %9d %9d %8d %7d\n",
			c.Workload, c.Design, c.Policy, c.Ops, c.PoolHitPct, c.SSDHitPct,
			c.SSDReads, c.SSDWrites, c.DiskWrites, c.WALWrites, c.CleanFirst)
	}
}
