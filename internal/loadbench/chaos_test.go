package loadbench

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestStampRoundTrip pins the page-stamp format and its classifier.
func TestStampRoundTrip(t *testing.T) {
	buf := make([]byte, 64)
	StampPage(buf, 42, 7, 3)
	seq, wr, st := CheckPage(buf, 42)
	if st != PageOK || seq != 7 || wr != 3 {
		t.Fatalf("CheckPage = (%d, %d, %d)", seq, wr, st)
	}
	// The crc binds the stamp to its page id: the same bytes on another
	// page read as corrupt, not as a valid foreign write.
	if _, _, st := CheckPage(buf, 43); st != PageCorrupt {
		t.Fatalf("stamp valid on wrong page: st=%d", st)
	}
	// A flipped byte is corrupt.
	buf[3] ^= 0x40
	if _, _, st := CheckPage(buf, 42); st != PageCorrupt {
		t.Fatalf("torn stamp not detected: st=%d", st)
	}
	// A zero page is unwritten.
	if _, _, st := CheckPage(make([]byte, 64), 42); st != PageUnwritten {
		t.Fatalf("zero page st=%d", st)
	}
}

// TestClassifyViolations feeds the verifier's classifier one ledger and the
// bytes a read brought back, one row per outcome. Each bad row must raise
// exactly its own counter, so removing any branch of the classifier fails
// that row, and the clean row fails a branch that fires too eagerly.
func TestClassifyViolations(t *testing.T) {
	const owner = 3
	stamp := func(pid int64, seq uint64, writer uint32) []byte {
		buf := make([]byte, 64)
		StampPage(buf, pid, seq, writer)
		return buf
	}
	single := track{pages: []int64{7}, owner: owner, acked: 5, sent: 8}
	seenBefore := single
	seenBefore.lastSeen = 7
	pair := track{pages: []int64{7, 263}, owner: owner, acked: 5, sent: 8}
	flipped := stamp(7, 6, owner)
	flipped[2] ^= 0x10

	for _, tc := range []struct {
		name string
		t    track
		data [][]byte
		want Report
	}{
		{"clean", single, [][]byte{stamp(7, 6, owner)}, Report{}},
		{"clean pair", pair, [][]byte{stamp(7, 6, owner), stamp(263, 6, owner)}, Report{}},
		{"unwritten after an ack", single, [][]byte{make([]byte, 64)}, Report{Lost: 1}},
		{"below the acked floor", single, [][]byte{stamp(7, 4, owner)}, Report{Lost: 1}},
		{"above the sent ceiling", single, [][]byte{stamp(7, 9, owner)}, Report{Phantom: 1}},
		{"below the last seen", seenBefore, [][]byte{stamp(7, 6, owner)}, Report{Stale: 1}},
		{"foreign writer", single, [][]byte{stamp(7, 6, owner+1)}, Report{Corrupt: 1}},
		{"corrupt stamp", single, [][]byte{flipped}, Report{Corrupt: 1}},
		{"torn pair", pair, [][]byte{stamp(7, 6, owner), stamp(263, 7, owner)}, Report{Torn: 1}},
	} {
		got, _, why := tc.t.classify(tc.data)
		if got != tc.want {
			t.Errorf("%s: classify = %+v, want %+v (%q)", tc.name, got, tc.want, why)
		}
		if int64(len(why)) != got.Violations() {
			t.Errorf("%s: %d reasons for %d violations", tc.name, len(why), got.Violations())
		}
	}
}

// buildServer compiles cmd/bpeserve into dir and returns the binary path.
func buildServer(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "bpeserve")
	cmd := exec.Command("go", "build", "-o", bin, "turbobp/cmd/bpeserve")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build bpeserve: %v\n%s", err, out)
	}
	return bin
}

// TestChaosKill9 is the crash-recovery acceptance test: real bpeserve
// process, committed load, kill -9 mid-load, restart with -open-existing,
// re-verify every acked commit — twice — then a graceful SIGTERM drain.
func TestChaosKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and sleeps; skipped in -short")
	}
	bin := buildServer(t, t.TempDir())
	var log bytes.Buffer
	rep, err := RunChaos(ChaosConfig{
		ServerBin: bin,
		Dir:       t.TempDir(),
		Cycles:    2,
		CycleLen:  400 * time.Millisecond,
		Seed:      42,
		Log:       &log,
	})
	if err != nil {
		t.Fatalf("RunChaos: %v\n%s", err, log.Bytes())
	}
	if rep.Kills != 2 {
		t.Fatalf("kills = %d, want 2", rep.Kills)
	}
	if rep.AckedCommits == 0 {
		t.Fatalf("no commits were acknowledged; harness generated no load\n%s", log.Bytes())
	}
	if rep.Failed() {
		t.Fatalf("chaos found violations: %s\n%s", rep, log.Bytes())
	}
	t.Logf("%s", rep)
}
