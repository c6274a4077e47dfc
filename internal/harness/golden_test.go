package harness

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestGoldenHashes pins every experiment's output byte for byte: it runs
// each registry experiment once at divisor 8192 and compares SHA-256s with
// the committed testdata/golden_8192.sha256, one line per experiment id —
// what `bpesim -divisor 8192 <id>` prints — plus, rendered from the same
// Result, one `<id>.csv` line per figure (`bpesim -divisor 8192 -csv <id>`).
// faults and corrupt also run at the default scale (`<id>@1024`). The
// committed hashes come from serial runs and this test runs the suite on at
// least two workers, so a match also pins that the output does not depend
// on the worker count. A change that moves a number regenerates the lines it
// moved with the commands in the file's header and says why. Each job's
// wall time is logged (`go test -v`) so a slower experiment names itself;
// no bound is set, since wall time on a shared host is noise.
func TestGoldenHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at divisor 8192 (~5 s)")
	}
	want := readGoldenHashes(t, "testdata/golden_8192.sha256")
	defer SetWorkers(0) // runs after GOMAXPROCS is restored
	if runtime.GOMAXPROCS(0) < 2 {
		// One CPU: raise GOMAXPROCS for this run (the deferred call puts the
		// old value back) so the suite still runs on two workers.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	SetWorkers(0)

	type job struct {
		name  string
		exp   Experiment
		scale Scale
	}
	var jobs []job
	for _, e := range Experiments() {
		jobs = append(jobs, job{e.ID, e, Bench})
	}
	for _, id := range []string{"faults", "corrupt"} {
		e, _ := FindExperiment(id)
		jobs = append(jobs, job{id + "@1024", e, Default})
	}
	type output struct {
		text, csv []byte
		dur       time.Duration
	}
	outs, err := RunGrid(len(jobs), func(i int) (output, error) {
		// runExperiments is what RunAll (and so bpesim) runs per id; the
		// wrapped Run keeps the Result for the CSV form.
		j, e := jobs[i], jobs[i].exp
		var res Result
		e.Run = func(s Scale) (r Result, err error) {
			r, err = j.exp.Run(s)
			res = r
			return r, err
		}
		var text, csv bytes.Buffer
		start := time.Now()
		if err := runExperiments([]Experiment{e}, j.scale, &text, nil); err != nil {
			return output{}, err
		}
		if e.CSV {
			if err := res.(CSVWriter).WriteCSV(&csv); err != nil {
				return output{}, err
			}
		}
		return output{text.Bytes(), csv.Bytes(), time.Since(start)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	got := map[string][]byte{}
	var order []string
	for i, j := range jobs {
		t.Logf("%s %v", j.name, outs[i].dur.Round(time.Millisecond))
		got[j.name] = outs[i].text
		order = append(order, j.name)
		if j.exp.CSV {
			got[j.name+".csv"] = outs[i].csv
			order = append(order, j.name+".csv")
		}
	}
	for _, name := range order {
		t.Run(name, func(t *testing.T) {
			sum := sha256.Sum256(got[name])
			if h := hex.EncodeToString(sum[:]); h != want[name] {
				t.Errorf("output of %s changed: sha256 %s, committed %q", name, h, want[name])
			}
		})
	}
	for name := range want {
		if got[name] == nil {
			t.Errorf("committed hash %s names no experiment output", name)
		}
	}
}

// readGoldenHashes parses "<hex>  <name>" lines; '#' lines are comments.
func readGoldenHashes(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hashes := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		hashes[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return hashes
}
