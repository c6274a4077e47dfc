package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary be the page server the smoke test's runs
// start: they spawn os.Executable() with -serve first.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range workloadNames[:3] {
		a, b, c := streamHash(wl, 1, 4, 5000), streamHash(wl, 1, 4, 5000), streamHash(wl, 2, 4, 5000)
		if a != b {
			t.Errorf("%s: seed 1 gave two different streams", wl)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", wl)
		}
	}
}

func TestGeneratorShape(t *testing.T) {
	const n = 200000
	g := newGenerator(wlReadCold, 7, 0, 1)
	hot := 0
	for i := 0; i < n; i++ {
		o := g.next()
		if o.a < 0 || o.a >= dbPages {
			t.Fatalf("page %d out of range", o.a)
		}
		if o.a%hotspotStride == 0 {
			hot++
		}
	}
	if share := 100 * float64(hot) / n; math.Abs(share-hotspotShare) > 1 {
		t.Errorf("hotspot share %.2f%%, want %d ± 1", share, hotspotShare)
	}

	for _, clients := range []int{1, 2, 3, 4} {
		for c := 0; c < clients; c++ {
			g := newGenerator(wlUpdateMix, 7, c, clients)
			txs, cross := 0, 0
			for i := 0; i < 4000; i++ {
				o := g.next()
				if o.kind != opTx {
					continue
				}
				txs++
				if o.a == o.b || o.a%int64(clients) != int64(c) || o.b%int64(clients) != int64(c) {
					t.Fatalf("clients=%d client=%d: transaction on pages %d, %d it may not write", clients, c, o.a, o.b)
				}
				if o.a/partPages != o.b/partPages {
					cross++
				}
			}
			if txs != 1000 || cross != 250 {
				t.Errorf("clients=%d client=%d: %d transactions, %d across partitions; want 1000, 250", clients, c, txs, cross)
			}
		}
	}
}

func TestStamp(t *testing.T) {
	var page [pageSize]byte
	if _, _, st := readStamp(page[:], 9); st != stampUnwritten {
		t.Errorf("zero page: state %d, want unwritten", st)
	}
	stamp(page[:valueSize], 9, 41, 3)
	if seq, w, st := readStamp(page[:], 9); st != stampOK || seq != 41 || w != 3 {
		t.Errorf("stamped page: seq %d writer %d state %d", seq, w, st)
	}
	if _, _, st := readStamp(page[:], 10); st != stampCorrupt {
		t.Errorf("page read under another id: state %d, want corrupt", st)
	}
	page[30] ^= 1
	if _, _, st := readStamp(page[:], 9); st != stampCorrupt {
		t.Errorf("flipped bit: state %d, want corrupt", st)
	}
}

// statistics.quantiles([...], n=4) of Python 3.12 on the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"x", "us", "lower", 0.10}
	higher := metricDef{"y", "1/s", "higher", 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		def         metricDef
		base, other []float64
		want        string
	}{
		{lower, steady, []float64{120, 121, 119, 120, 120}, "worse"},
		{lower, steady, []float64{80, 81, 79, 80, 80}, "better"},
		{lower, steady, []float64{105, 104, 106, 105, 105}, "same"},
		{higher, steady, []float64{80, 81, 79, 80, 80}, "worse"},
		{higher, steady, []float64{120, 121, 119, 120, 120}, "better"},
		{lower, steady, []float64{60, 140, 100, 80, 120}, "unresolved"},
	} {
		if _, got := verdict(c.def, c.base, c.other); got != c.want {
			t.Errorf("verdict(%s, %v → %v) = %s, want %s", c.def.better, c.base, c.other, got, c.want)
		}
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestManifestMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloadNames) || len(m.Workloads) > 8 {
		t.Fatalf("%d workloads in the manifest, %d in the bench", len(m.Workloads), len(workloadNames))
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not made of [A-Za-z0-9_.-], at most 64", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range m.Workloads {
		check(w.Name)
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q with a why of %d characters", i, w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the bench", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		check(e.Name)
		d := endToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound == nil || *e.Bound != d.bound || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end %d: manifest %+v, bench %+v", i, e, d)
		}
	}
	if len(m.PerLayer) != len(perLayer) || len(m.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the bench", len(m.PerLayer), len(perLayer))
	}
	for i, e := range m.PerLayer {
		check(e.Name)
		d := perLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer %d: manifest %+v, bench %+v", i, e, d)
		}
	}
}

// TestQuickSmoke runs the real command — the suite, one contract-style
// run, and -compare — at smoke sizes, and checks that every workload and
// metric of the tables comes out, that nothing failed, and that no child
// process or scratch directory is left behind.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns page servers; skipped under -short")
	}
	tmp := t.TempDir()
	scratch := filepath.Join(tmp, "scratch")
	if err := os.Mkdir(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", scratch)
	history := filepath.Join(tmp, "history.jsonl")
	traces := filepath.Join(tmp, "traces")
	if err := os.Mkdir(traces, 0o755); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if code := run([]string{"-quick", "-seconds", "0.3", "-history", history, "-out", traces}, &out); code != 0 {
		t.Fatalf("suite exited %d\n%s", code, out.String())
	}
	var doc suiteDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("suite output: %v", err)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("%d runs, want 1", len(doc.Runs))
	}
	for _, wl := range workloadNames {
		w := doc.Runs[0][wl]
		if w == nil {
			t.Fatalf("workload %s missing from the suite document", wl)
		}
		if !w.Correct || w.FailShare != 0 || w.Attempted < 1 {
			t.Errorf("%s: correct=%v fail_share=%v attempted=%d notes=%v", wl, w.Correct, w.FailShare, w.Attempted, w.Notes)
		}
		for _, tab := range []struct {
			defs []metricDef
			got  map[string]metric
		}{{endToEnd, w.EndToEnd}, {perLayer, w.PerLayer}} {
			if len(tab.got) != len(tab.defs) {
				t.Errorf("%s: %d metrics, want %d", wl, len(tab.got), len(tab.defs))
			}
			for _, d := range tab.defs {
				if m, ok := tab.got[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s: metric %s: present=%v unit=%q, want unit %q", wl, d.name, ok, m.Unit, d.unit)
				}
			}
		}
	}
	if hot, cold := doc.Runs[0][wlReadHot].PerLayer, doc.Runs[0][wlReadCold].PerLayer; hot["bufpool.hit_ratio"].Value < 0.99 ||
		hot["turbobp.virtual_us_per_op"].Value >= cold["turbobp.virtual_us_per_op"].Value || cold["device.disk_writes_per_op"].Value != 0 {
		t.Errorf("layer predictions: hot pool hit ratio %v, simulated us per op hot %v and cold %v, cold disk writes/op %v",
			hot["bufpool.hit_ratio"].Value, hot["turbobp.virtual_us_per_op"].Value, cold["turbobp.virtual_us_per_op"].Value, cold["device.disk_writes_per_op"].Value)
	}
	if b, err := os.ReadFile(history); err != nil || bytes.Count(b, []byte("\n")) != 1 {
		t.Errorf("history file: %v, %d lines, want 1", err, bytes.Count(b, []byte("\n")))
	}
	if m, _ := filepath.Glob(filepath.Join(traces, "trace-srv_*.jsonl")); len(m) != 6 {
		t.Errorf("trace files %v, want a wire and an embedded one per srv workload", m)
	}

	// One run as the driver makes it: the last line is the result object.
	out.Reset()
	if code := run([]string{"--workload", wlUpdateMix, "--seed", "3", "--seconds", "0.3", "--trace", "0", "-quick"}, &out); code != 0 {
		t.Fatalf("single run exited %d\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Errorf("result object has keys %v", raw)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result %+v: %v", res, err)
	}

	// A document compared with itself is the same everywhere.
	docPath := filepath.Join(tmp, "doc.json")
	b, _ := json.Marshal(&doc)
	if err := os.WriteFile(docPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-compare", docPath, docPath}, &out); code != 0 || strings.Count(out.String(), "same") != len(workloadNames)*len(endToEnd) {
		t.Errorf("-compare of a document with itself: exit %d\n%s", code, out.String())
	}

	live.Lock()
	n := len(live.m)
	live.Unlock()
	if n != 0 {
		t.Errorf("%d page servers still running", n)
	}
	if left, _ := os.ReadDir(scratch); len(left) != 0 {
		t.Errorf("scratch directory still holds %d entries, first %s", len(left), left[0].Name())
	}
}
