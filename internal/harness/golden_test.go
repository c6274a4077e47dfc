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
	for _, tc := range []struct {
		name  string
		ids   []string
		scale Scale
	}{
		{"all", all, small},
		{"index", []string{"index"}, small},
		{"policy", []string{"policy"}, small},
		{"faults", []string{"faults"}, Default},
		{"corrupt", []string{"corrupt"}, Default},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			if err := RunAll(tc.ids, tc.scale, h, io.Discard); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[tc.name] {
				t.Errorf("stdout of %q changed: sha256 %s, committed %s", tc.name, got, want[tc.name])
			}
		})
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
