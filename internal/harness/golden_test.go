package harness

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"strings"
	"testing"
)

// TestGoldenHashes reruns the experiment sets whose stdout must stay
// byte-identical across refactors and compares each SHA-256 with the
// committed testdata/golden_8192.sha256 (the file's header names the
// commit and command that produced it). A PR that legitimately moves a
// number regenerates the file with that command and says so.
func TestGoldenHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns the full experiment suite (~20 s)")
	}
	want := readGoldenHashes(t, "testdata/golden_8192.sha256")
	all := make([]string, 0, len(Experiments()))
	for _, e := range Experiments() {
		all = append(all, e.ID)
	}
	small := Scale{Divisor: 8192}
	figures := []string{"fig5-tpcc", "fig5-tpce", "fig5-tpch", "fig6", "fig7", "fig8", "fig9", "table3"}
	for _, tc := range []struct {
		name  string
		ids   []string
		scale Scale
		run   func(ids []string, scale Scale, out io.Writer) error
	}{
		{"all", all, small, runText},
		{"index", []string{"index"}, small, runText},
		{"policy", []string{"policy"}, small, runText},
		{"faults", []string{"faults"}, Default, runText},
		{"corrupt", []string{"corrupt"}, Default, runText},
		{"csv", figures, small, runCSV},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			if err := tc.run(tc.ids, tc.scale, h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[tc.name] {
				t.Errorf("stdout of %q changed: sha256 %s, committed %s", tc.name, got, want[tc.name])
			}
		})
	}
}

func runText(ids []string, scale Scale, out io.Writer) error {
	return RunAll(ids, scale, out, io.Discard)
}

// runCSV is what `bpesim -csv <ids>` writes.
func runCSV(ids []string, scale Scale, out io.Writer) error {
	for _, id := range ids {
		e, _ := FindExperiment(id)
		res, err := e.Run(scale)
		if err != nil {
			return err
		}
		if err := res.(CSVWriter).WriteCSV(out); err != nil {
			return err
		}
	}
	return nil
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
