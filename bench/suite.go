package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// header identifies a suite run: which code, on what machine, from which
// seed. Numbers from different headers are not comparable.
type header struct {
	Commit     string  `json:"commit"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Seed       uint64  `json:"seed"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
	Started    string  `json:"started"`
}

// workloadDoc is one workload of one suite run: the untraced run's
// end-to-end metrics beside the traced run's per-layer metrics.
type workloadDoc struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	FailShare float64           `json:"fail_share"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	Windows   []float64         `json:"ops_s_windows"`
	Notes     []string          `json:"notes,omitempty"`
}

// summaryRow condenses one workload × end-to-end metric over the runs.
type summaryRow struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3 − q1) / median
}

// suiteDoc is what the suite prints and -compare reads.
type suiteDoc struct {
	Header  header                           `json:"header"`
	Runs    []map[string]*workloadDoc        `json:"runs"`
	Summary map[string]map[string]summaryRow `json:"summary"`
}

func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD")
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // an exported checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// values collects one workload × end-to-end metric over the runs.
func (d *suiteDoc) values(workload, name string) []float64 {
	var v []float64
	for _, run := range d.Runs {
		if w := run[workload]; w != nil {
			if m, ok := w.EndToEnd[name]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

func (d *suiteDoc) summarise() {
	d.Summary = map[string]map[string]summaryRow{}
	for _, wl := range workloadNames {
		d.Summary[wl] = map[string]summaryRow{}
		for _, def := range endToEnd {
			v := d.values(wl, def.name)
			q1, q2, q3 := quartiles(v)
			d.Summary[wl][def.name] = summaryRow{N: len(v), Median: q2, Q1: q1, Q3: q3, Spread: spread(v)}
		}
	}
}

// runSuite runs every workload, untraced then traced, repeat times over,
// and prints one document. The exit status is nonzero if any run was
// incorrect — after the document has been printed.
func runSuite(stdout io.Writer, cfg config, maxTime time.Duration, repeat int, history string) int {
	doc := suiteDoc{Header: header{
		Commit: gitCommit(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Seed: cfg.seed, Clients: cfg.clients, Seconds: cfg.seconds,
		Started: time.Now().UTC().Format(time.RFC3339),
	}}
	status := 0
	for r := 0; r < repeat; r++ {
		run := map[string]*workloadDoc{}
		for _, wl := range workloadNames {
			cfg.workload = wl
			var reps [2]*report
			for i, traced := range []bool{false, true} {
				cfg.trace = traced
				fmt.Fprintf(os.Stderr, "bench: run %d/%d: %s trace=%d\n", r+1, repeat, wl, i)
				ctx, cancel := context.WithTimeout(context.Background(), maxTime)
				reps[i] = runOne(ctx, cfg)
				cancel()
			}
			w := &workloadDoc{
				Correct:   reps[0].Correct && reps[1].Correct,
				Attempted: reps[0].Attempted + reps[1].Attempted,
				Failed:    reps[0].Failed + reps[1].Failed,
				EndToEnd:  reps[0].Metrics,
				PerLayer:  reps[1].Metrics,
				Windows:   reps[0].Windows,
				Notes:     append(reps[0].Notes, reps[1].Notes...),
			}
			w.FailShare = float64(w.Failed) / float64(w.Attempted)
			if !w.Correct {
				status = 1
			}
			run[wl] = w
		}
		doc.Runs = append(doc.Runs, run)
		if history != "" {
			if err := appendHistory(history, doc.Header, run); err != nil {
				fmt.Fprintln(os.Stderr, "bench: history:", err)
				status = 1
			}
		}
	}
	doc.summarise()
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&doc); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return status
}

// appendHistory adds one line for one suite run: the header that keys it,
// every end-to-end metric and the windowed rate per workload.
func appendHistory(path string, h header, run map[string]*workloadDoc) error {
	type entry struct {
		EndToEnd map[string]metric `json:"end_to_end"`
		Windows  []float64         `json:"ops_s_windows"`
		Correct  bool              `json:"correct"`
	}
	line := struct {
		header
		Workloads map[string]entry `json:"workloads"`
	}{h, map[string]entry{}}
	for wl, w := range run {
		line.Workloads[wl] = entry{w.EndToEnd, w.Windows, w.Correct}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// verdict judges one workload × metric of a change against the base.
// worsening is the change's median relative to the base's, signed so that
// positive is worse whatever the metric's direction. A pair is unresolved
// when the run-to-run spread inside either side exceeds the bound: the
// difference, whatever it reads, is then within the noise.
func verdict(def metricDef, base, other []float64) (worsening float64, v string) {
	mb, mo := median(base), median(other)
	if mb == 0 {
		return 0, "unresolved"
	}
	worsening = (mo - mb) / mb
	if def.better == "higher" {
		worsening = -worsening
	}
	switch {
	case spread(base) > def.bound || spread(other) > def.bound:
		v = "unresolved"
	case worsening > def.bound:
		v = "worse"
	case worsening < -def.bound:
		v = "better"
	default:
		v = "same"
	}
	return worsening, v
}

// compareFiles prints, for each document after the first, one row per
// workload × end-to-end metric against the first. The status is nonzero
// when any row is worse or unresolved.
func compareFiles(w io.Writer, paths []string) int {
	if len(paths) < 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare needs a base document and at least one other")
		return 2
	}
	docs := make([]*suiteDoc, len(paths))
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err == nil {
			docs[i] = new(suiteDoc)
			err = json.Unmarshal(b, docs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p, err)
			return 2
		}
	}
	status := 0
	base := docs[0]
	for i, other := range docs[1:] {
		fmt.Fprintf(w, "%s (commit %s, %d runs) against %s (commit %s, %d runs)\n",
			paths[i+1], other.Header.Commit, len(other.Runs), paths[0], base.Header.Commit, len(base.Runs))
		tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
		fmt.Fprintln(tw, "workload\tmetric\tbase median\tother median\tworsening\tbound\tbase spread\tother spread\tverdict")
		for _, wl := range workloadNames {
			for _, def := range endToEnd {
				bv, ov := base.values(wl, def.name), other.values(wl, def.name)
				worse, v := verdict(def, bv, ov)
				if v == "worse" || v == "unresolved" {
					status = 1
				}
				fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
					wl, def.name, median(bv), def.unit, median(ov), def.unit,
					100*worse, 100*def.bound, 100*spread(bv), 100*spread(ov), v)
			}
		}
		tw.Flush()
	}
	return status
}
