package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"turbobp/internal/netproto"
)

// server is one page-server child process: this binary, run with -serve.
type server struct {
	cmd    *exec.Cmd
	addr   string
	dir    string        // where its log goes
	exited chan struct{} // closed once cmd.Wait has returned
}

// live is every child not yet reaped, so that any exit path — return,
// error, signal, deadline — can stop them all.
var live struct {
	sync.Mutex
	m map[*server]struct{}
}

func stopAllServers() {
	live.Lock()
	var all []*server
	for s := range live.m {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// serverLifetime is how long a child lives at most: longer than any run,
// and its own way out should the bench be SIGKILLed, when no defer or
// handler runs.
const serverLifetime = 175 * time.Second

// startServer spawns the page server on a free loopback port and waits
// until it answers a health probe. The port is found by binding :0 and
// releasing it, so another process can take it first; a child that fails to
// listen is replaced, up to five times.
func startServer(ctx context.Context, dir string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := ln.Addr().String()
		ln.Close()
		s, err := spawn(dir, addr)
		if err != nil {
			return nil, err
		}
		if lastErr = s.waitHealthy(ctx, 10*time.Second); lastErr == nil {
			return s, nil
		}
		s.kill()
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("the page server did not come up: %w", lastErr)
}

func spawn(dir, addr string) (*server, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(dir, "serve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-serve", "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	err = cmd.Start()
	logf.Close() // the child holds its own descriptor
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, addr: addr, dir: dir, exited: make(chan struct{})}
	live.Lock()
	if live.m == nil {
		live.m = make(map[*server]struct{})
	}
	live.m[s] = struct{}{}
	live.Unlock()
	go func() {
		cmd.Wait()
		live.Lock()
		delete(live.m, s)
		live.Unlock()
		close(s.exited)
	}()
	return s, nil
}

func (s *server) waitHealthy(ctx context.Context, bound time.Duration) error {
	deadline := time.Now().Add(bound)
	for {
		select {
		case <-s.exited:
			log, _ := os.ReadFile(filepath.Join(s.dir, "serve.log"))
			return fmt.Errorf("the page server exited before listening: %s", bytes.TrimSpace(log))
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		cl, err := netproto.Dial(netproto.ClientConfig{Addr: s.addr, DialTimeout: 200 * time.Millisecond, MaxReconnects: 1})
		if err == nil {
			ok, herr := cl.Health()
			cl.Close()
			if herr == nil && ok {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no healthy answer on %s within %v", s.addr, bound)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kill ends the child at once and waits until it is reaped.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// cpuTicks reads the child's user+system CPU time from /proc/<pid>/stat,
// in clock ticks (USER_HZ, 100 per second on every Linux Go supports).
func (s *server) cpuTicks() int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return ut + st
}

const usPerTick = 1e6 / 100

// reapedPeakRSSMB ends the child and returns the peak resident set wait4
// reported for it, in megabytes: never less than the bench's own resident
// set at the spawn, which exec hands down, and which is below the server's.
// It is what is left where /proc does not show the child.
func (s *server) reapedPeakRSSMB() float64 {
	s.kill()
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// selfPeakRSSMB is this process's peak resident set in megabytes.
func selfPeakRSSMB() float64 {
	if mb := procPeakRSSMB(os.Getpid()); mb > 0 {
		return mb
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// procPeakRSSMB reads a process's VmHWM from /proc; 0 if it is not there.
func procPeakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
