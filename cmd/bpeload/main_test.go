package main

import (
	"bytes"
	"net"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"testing"
	"time"

	"turbobp/internal/netproto"
)

// TestLoadAgainstFileBackedServer runs bpeload's plain (non-chaos) mode for
// about a second against a real file-backed bpeserve process: the run must
// complete operations, its verification pass must find no violation, and
// the server must drain and report on SIGTERM.
func TestLoadAgainstFileBackedServer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns bpeserve and loads it for a second; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "bpeserve")
	build := exec.Command("go", "build", "-o", bin, "turbobp/cmd/bpeserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build bpeserve: %v\n%s", err, out)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var srvOut bytes.Buffer
	srv := exec.Command(bin, "-addr", addr, "-dir", t.TempDir(),
		"-pages", "8192", "-pool", "1024", "-ssd", "2048", "-concurrency", "2")
	srv.Stdout, srv.Stderr = &srvOut, &srvOut
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill() // no-op once the drain below has reaped it
	waitHealthy(t, addr)

	var out bytes.Buffer
	err = run([]string{"-addr", addr, "-readers", "2", "-writers", "2",
		"-pages", "8192", "-duration", "1s"}, &out)
	if err != nil {
		t.Fatalf("bpeload: %v\n%s", err, out.Bytes())
	}
	m := regexp.MustCompile(`total: (\d+) ops`).FindSubmatch(out.Bytes())
	if m == nil {
		t.Fatalf("no total line in the report:\n%s", out.Bytes())
	}
	if ops, _ := strconv.Atoi(string(m[1])); ops == 0 {
		t.Errorf("bpeload completed no operations:\n%s", out.Bytes())
	}
	if !regexp.MustCompile(`verify: [1-9]\d* pages checked, 0 lost, 0 corrupt, 0 phantom, 0 inline failures`).Match(out.Bytes()) {
		t.Errorf("verification pass did not come back clean:\n%s", out.Bytes())
	}

	srv.Process.Signal(syscall.SIGTERM)
	if err := srv.Wait(); err != nil {
		t.Fatalf("bpeserve exit: %v\n%s", err, srvOut.Bytes())
	}
	if !regexp.MustCompile(`bpeserve: served [1-9]\d* ops`).Match(srvOut.Bytes()) {
		t.Errorf("no served-ops summary from the drained server:\n%s", srvOut.Bytes())
	}
}

// waitHealthy polls the server's health op until it answers.
func waitHealthy(t *testing.T, addr string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		cl, err := netproto.Dial(netproto.ClientConfig{Addr: addr, DialTimeout: 200 * time.Millisecond, MaxReconnects: 1})
		if err != nil {
			continue
		}
		ok, err := cl.Health()
		cl.Close()
		if ok && err == nil {
			return
		}
	}
	t.Fatalf("bpeserve at %s not healthy within 10s", addr)
}
