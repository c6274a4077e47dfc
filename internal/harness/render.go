package harness

import (
	"fmt"
	"io"
	"sort"
)

// Print renders the speedup bars like a Figure 5 group.
func (r *Fig5Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 5 — %s speedups over noSSD\n", r.Benchmark)
	fmt.Fprintf(w, "%-26s %-6s %12s %9s\n", "database", "design", "throughput", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-26s %-6s %12.2f %8.2fX\n", row.Label, row.Design, row.TPS, row.Speedup)
	}
}

// Print renders a timeline as aligned columns, one row per bucket.
func (t *TimelineResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%s (bucket = %v, tx/s, 3-pt moving average)\n", t.Title, t.Bucket)
	fmt.Fprintf(w, "%-8s", "bucket")
	for _, name := range t.Order {
		fmt.Fprintf(w, " %12s", name)
	}
	fmt.Fprintln(w)
	n := 0
	for _, c := range t.Curves {
		if len(c) > n {
			n = len(c)
		}
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%-8d", i)
		for _, name := range t.Order {
			c := t.Curves[name]
			if i < len(c) {
				fmt.Fprintf(w, " %12.2f", c[i])
			} else {
				fmt.Fprintf(w, " %12s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// Timelines is a figure made of several charts (Figures 6 and 9).
type Timelines []*TimelineResult

// Print renders each chart followed by a blank line.
func (ts Timelines) Print(w io.Writer) {
	for _, t := range ts {
		t.Print(w)
		fmt.Fprintln(w)
	}
}

// Print renders the Figure 8 bandwidth series.
func (r *IOTrafficResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 8 — I/O traffic (MB/s, bucket = %v)\n", r.Bucket)
	fmt.Fprintf(w, "%-8s %12s %12s %12s %12s\n", "bucket", "disk-read", "disk-write", "ssd-read", "ssd-write")
	n := len(r.DiskReadMB)
	for i := 0; i < n; i++ {
		get := func(s []float64) float64 {
			if i < len(s) {
				return s[i]
			}
			return 0
		}
		fmt.Fprintf(w, "%-8d %12.2f %12.2f %12.2f %12.2f\n",
			i, get(r.DiskReadMB), get(r.DiskWriteMB), get(r.SSDReadMB), get(r.SSDWriteMB))
	}
}

// Print renders Table 3.
func (r *Table3Result) Print(w io.Writer) {
	sfs := map[int]bool{}
	for _, row := range r.Rows {
		sfs[row.SF] = true
	}
	var order []int
	for sf := range sfs {
		order = append(order, sf)
	}
	sort.Ints(order)
	for _, sf := range order {
		fmt.Fprintf(w, "Table 3 — %dSF TPC-H\n", sf)
		fmt.Fprintf(w, "%-18s", "metric")
		for _, d := range Table3Designs {
			fmt.Fprintf(w, " %10s", d)
		}
		fmt.Fprintln(w)
		printRow := func(name string, pick func(*TPCHResult) float64) {
			fmt.Fprintf(w, "%-18s", name)
			for _, d := range Table3Designs {
				for _, row := range r.Rows {
					if row.SF == sf && row.Design == d {
						fmt.Fprintf(w, " %10.0f", pick(row))
					}
				}
			}
			fmt.Fprintln(w)
		}
		printRow("Power Test", func(t *TPCHResult) float64 { return t.Power })
		printRow("Throughput Test", func(t *TPCHResult) float64 { return t.Throughput })
		printRow(fmt.Sprintf("QphH@%dSF", sf), func(t *TPCHResult) float64 { return t.QphH })
		fmt.Fprintln(w)
	}
}

// Print renders the CW comparison of §4.1.1.
func (r *CWResult) Print(w io.Writer) {
	fmt.Fprintf(w, "CW comparison (TPC-E 20K customers; paper: CW 21.6%%/23.3%% slower than DW/LC)\n")
	fmt.Fprintf(w, "CW  %10.2f tx/s\n", r.CWTPS)
	fmt.Fprintf(w, "DW  %10.2f tx/s  (CW %5.1f%% slower)\n", r.DWTPS, r.SlowerThanDW*100)
	fmt.Fprintf(w, "LC  %10.2f tx/s  (CW %5.1f%% slower)\n", r.LCTPS, r.SlowerThanLC*100)
}

// TACWasteRows is the §2.5 wasted-space measurement, one row per database.
type TACWasteRows []TACWasteRow

// Print renders the §2.5 wasted-space rows.
func (rows TACWasteRows) Print(w io.Writer) {
	fmt.Fprintln(w, "TAC wasted SSD space on invalid pages (paper: 7.4/10.4/8.9 GB of 140GB)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %8d invalid pages = %6.2f GB (paper scale)\n", r.Label, r.InvalidPages, r.WastedGB)
	}
}

// Print renders the classifier accuracy comparison of §2.2.
func (r *ClassifyResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Sequential-read classification accuracy (paper: read-ahead 82%, distance 51%)")
	fmt.Fprintf(w, "read-ahead mechanism: %5.1f%%\n", r.ReadAheadAccuracy*100)
	fmt.Fprintf(w, "64-page distance [29]: %5.1f%%\n", r.DistanceAccuracy*100)
}

// Print renders Table 1.
func (r *Table1Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table 1 — maximum sustainable IOPS, 8KB I/Os (paper values in parentheses)")
	fmt.Fprintf(w, "%-8s %18s %18s %18s %18s\n", "device", "rand-read", "seq-read", "rand-write", "seq-write")
	fmt.Fprintf(w, "%-8s %10.0f (1015) %9.0f (26370) %10.0f (895) %10.0f (9463)\n",
		"8 HDDs", r.ArrayRandRead, r.ArraySeqRead, r.ArrayRandWrite, r.ArraySeqWrite)
	fmt.Fprintf(w, "%-8s %9.0f (12182) %9.0f (15980) %9.0f (12374) %9.0f (14965)\n",
		"SSD", r.SSDRandRead, r.SSDSeqRead, r.SSDRandWrite, r.SSDSeqWrite)
}

// Result is what an experiment returns: a typed value that renders itself.
// Two optional forms are discovered on the result's type: CSVWriter
// (figure data) and Verdict (pass/fail matrices).
type Result interface{ Print(w io.Writer) }

// CSVWriter is implemented by results that are figure data: WriteCSV emits
// machine-readable series so the paper's charts can be re-plotted directly.
type CSVWriter interface{ WriteCSV(w io.Writer) error }

// Verdict is implemented by pass/fail results: Err names the failed cells.
type Verdict interface{ Err() error }

// Experiment is a runnable reproduction unit addressable by id.
type Experiment struct {
	ID          string
	Description string
	Run         func(Scale) (Result, error)
	// CSV reports whether the result type implements CSVWriter, known
	// from the type alone so a caller can refuse before anything runs.
	CSV bool
}

// experiment adapts a typed runner to the registry's shape.
func experiment[T Result](id, description string, run func(Scale) (T, error)) Experiment {
	var zero T
	_, csv := Result(zero).(CSVWriter)
	return Experiment{id, description, func(s Scale) (Result, error) {
		r, err := run(s)
		if err != nil {
			return nil, err
		}
		return r, nil
	}, csv}
}

// Experiments lists every reproduction in the per-experiment index order
// of DESIGN.md.
func Experiments() []Experiment {
	return []Experiment{
		experiment("table1", "Table 1: device IOPS", func(Scale) (*Table1Result, error) { return RunTable1(), nil }),
		experiment("fig5-tpcc", "Figure 5(a-c): TPC-C speedups", Fig5TPCC),
		experiment("fig5-tpce", "Figure 5(d-f): TPC-E speedups", Fig5TPCE),
		experiment("fig5-tpch", "Figure 5(g-h): TPC-H speedups", Fig5TPCH),
		experiment("fig6", "Figure 6: 10-hour throughput timelines", Fig6),
		experiment("fig7", "Figure 7: LC λ sweep on TPC-C 4K", Fig7),
		experiment("fig8", "Figure 8: I/O traffic, TPC-E 20K DW", Fig8),
		experiment("fig9", "Figure 9: checkpoint-interval effect", Fig9),
		experiment("table3", "Table 3: TPC-H power/throughput/QphH", func(s Scale) (*Table3Result, error) {
			return RunTable3(s, []int{30, 100})
		}),
		experiment("cw", "§4.1.1: CW vs DW/LC on TPC-E 20K", RunCW),
		experiment("tacwaste", "§2.5: TAC wasted SSD space", RunTACWaste),
		experiment("classify", "§2.2: classifier accuracy", RunClassify),
		experiment("warmrestart", "§6 extension: warm restart vs cold restart", RunWarmRestart),
		experiment("midrange", "§6: mid-range SSD sweep", RunMidrange),
		experiment("ablation", "§3.3 design-choice ablations", RunAblations),
		experiment("trimming", "§3.3.3: multi-page I/O trimming", RunTrimming),
		experiment("restart", "§2.3.3: checkpoint policy vs restart time", RunRestart),
		experiment("faults", "fault-injection crash/recover matrix", RunFaultMatrix),
		experiment("corrupt", "silent-corruption detect/repair matrix", RunCorruptMatrix),
		experiment("index", "index & heapfile traversal workloads: 4 designs × 5 mixes", RunIndex),
		experiment("policy", "cache-policy sweep: 4 designs × 2 policies × 4 workloads", RunPolicySweep),
	}
}

// FindExperiment returns the experiment with the given id.
func FindExperiment(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
