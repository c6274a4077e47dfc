package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV export: the figure-like results implement CSVWriter so the paper's
// charts can be re-plotted directly from harness output. Results without a
// WriteCSV method have no CSV form (their text output is already tabular).

func ftoa(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }

// WriteCSV emits one row per (database, design) bar.
func (r *Fig5Result) WriteCSV(w io.Writer) error {
	rows := [][]string{{"database", "design", "throughput", "speedup"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Label, row.Design.String(), ftoa(row.TPS, 2), ftoa(row.Speedup, 3)})
	}
	return csv.NewWriter(w).WriteAll(rows)
}

// WriteCSV emits one row per bucket with a column per curve.
func (t *TimelineResult) WriteCSV(w io.Writer) error {
	rows := [][]string{append([]string{"bucket", "seconds"}, t.Order...)}
	n := 0
	for _, c := range t.Curves {
		n = max(n, len(c))
	}
	for i := 0; i < n; i++ {
		row := []string{strconv.Itoa(i), ftoa(float64(i)*t.Bucket.Seconds(), 4)}
		for _, name := range t.Order {
			if c := t.Curves[name]; i < len(c) {
				row = append(row, ftoa(c[i], 2))
			} else {
				row = append(row, "")
			}
		}
		rows = append(rows, row)
	}
	return csv.NewWriter(w).WriteAll(rows)
}

// WriteCSV emits each chart's CSV under a "# title" line, blank lines
// between charts.
func (ts Timelines) WriteCSV(w io.Writer) error {
	for i, t := range ts {
		sep := ""
		if i > 0 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s# %s\n", sep, t.Title); err != nil {
			return err
		}
		if err := t.WriteCSV(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the four bandwidth series of Figure 8.
func (r *IOTrafficResult) WriteCSV(w io.Writer) error {
	rows := [][]string{{"bucket", "seconds", "disk_read_MBps", "disk_write_MBps", "ssd_read_MBps", "ssd_write_MBps"}}
	for i := range r.DiskReadMB {
		row := []string{strconv.Itoa(i), ftoa(float64(i)*r.Bucket.Seconds(), 4)}
		for _, s := range [][]float64{r.DiskReadMB, r.DiskWriteMB, r.SSDReadMB, r.SSDWriteMB} {
			if i < len(s) {
				row = append(row, ftoa(s[i], 3))
			} else {
				row = append(row, "")
			}
		}
		rows = append(rows, row)
	}
	return csv.NewWriter(w).WriteAll(rows)
}

// WriteCSV emits the Table 3 grid.
func (r *Table3Result) WriteCSV(w io.Writer) error {
	rows := [][]string{{"sf", "design", "power", "throughput", "qphh"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{strconv.Itoa(row.SF), row.Design.String(),
			ftoa(row.Power, 1), ftoa(row.Throughput, 1), ftoa(row.QphH, 1)})
	}
	return csv.NewWriter(w).WriteAll(rows)
}
