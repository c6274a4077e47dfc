// Chaos harness: drives a real bpeserve process with committed load while
// repeatedly kill -9ing and restarting it, then checks that every
// acknowledged commit is durable, no page ever reads back torn or stale,
// and cross-partition pair transactions stay atomic across the crashes.
//
// The load is the package's one Writer and the check its one Verify, the
// same pair bpeload's plain mode runs: after each restart every tracked
// page is reread and held to floor <= observed <= ceiling plus
// cross-restart monotonicity. Pair writers stamp two pages in different
// partitions with the same seq inside one transaction, so unequal seqs
// after recovery expose a broken cross-partition commit.

package loadbench

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"turbobp/internal/metrics"
	"turbobp/internal/netproto"
)

// The chaos server's shape and its tracked load. Single-page writers own
// pages [w*16, w*16+16) in the first half of the id space; pair writers
// own the pairs (p, p+chaosPages/4) for p from chaosPages/2 + w*4, which
// lands the two pages of a pair in different partitions.
const (
	chaosPages       = 1024
	chaosPageSize    = 64
	chaosConcurrency = 4
	chaosMaxInflight = 64 // server -max-inflight
	chaosWriters     = 4  // single-page writers
	chaosPagesEach   = 16 // tracked pages per single-page writer
	chaosPairWriters = 2  // cross-partition pair writers
	chaosPairsEach   = 4  // tracked pairs per pair writer
)

// ChaosConfig configures RunChaos. Zero values take defaults.
type ChaosConfig struct {
	// ServerBin is the bpeserve binary to spawn. Required.
	ServerBin string
	// Dir is the data directory shared across server restarts. Required.
	Dir string

	Cycles   int           // kill-9/restart cycles; default 3
	CycleLen time.Duration // load duration per cycle; default 1s

	Seed int64     // workload determinism; default 1
	Log  io.Writer // progress lines; nil discards
}

// ChaosReport is the harness verdict. Any nonzero violation counter means
// the durability or atomicity contract broke.
type ChaosReport struct {
	Cycles       int
	Kills        int
	AckedCommits int64 // transactions acknowledged to a writer

	LostAcked   int64 // acked commit read back older after restart
	StaleReads  int64 // page seq moved backwards across restarts
	Corrupt     int64 // torn header or foreign writer id
	TornPairs   int64 // cross-partition pair with unequal seqs
	PhantomSeqs int64 // page seq newer than anything ever sent
	VerifyFails int64 // read-your-writes check failed during load

	netproto.ClientStats // summed over every writer's clients
}

// Failed reports whether any correctness violation was observed.
func (r *ChaosReport) Failed() bool {
	return r.LostAcked+r.StaleReads+r.Corrupt+r.TornPairs+r.PhantomSeqs+r.VerifyFails > 0
}

// String is the one-line verdict bpeload -chaos prints.
func (r *ChaosReport) String() string {
	return fmt.Sprintf("chaos: %d cycles, %d kills, %d acked commits | lost=%d stale=%d corrupt=%d torn-pairs=%d phantom=%d verify-fails=%d | retries=%d sheds=%d deadline=%d busy=%d reconnects=%d",
		r.Cycles, r.Kills, r.AckedCommits,
		r.LostAcked, r.StaleReads, r.Corrupt, r.TornPairs, r.PhantomSeqs, r.VerifyFails,
		r.Retries, r.Sheds, r.Deadlines, r.Busy, r.Reconnects)
}

// syncWriter serializes writes to the shared chaos log: the harness, the
// writers and the child process's stdout copier write concurrently.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// Write writes p under the lock.
func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

type chaos struct {
	cfg     ChaosConfig
	addr    string
	log     io.Writer // nil, or a syncWriter around cfg.Log
	cmd     *exec.Cmd
	writers []*Writer

	mu     sync.Mutex
	faults netproto.ClientStats // summed over retired clients
}

func (h *chaos) logf(format string, args ...any) {
	if h.log != nil {
		fmt.Fprintf(h.log, "chaos: "+format+"\n", args...)
	}
}

// RunChaos runs the kill-9 chaos loop: start the server fresh, then for
// each cycle drive committed load, SIGKILL the server mid-load, restart it
// with -open-existing and re-verify every tracked page. It finishes with a
// graceful SIGTERM shutdown so the drain path is exercised too.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.ServerBin == "" || cfg.Dir == "" {
		return nil, errors.New("chaos: ServerBin and Dir are required")
	}
	if cfg.Cycles == 0 {
		cfg.Cycles = 3
	}
	if cfg.CycleLen == 0 {
		cfg.CycleLen = time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &chaos{cfg: cfg, addr: ln.Addr().String()}
	ln.Close()
	if cfg.Log != nil {
		h.log = &syncWriter{w: cfg.Log}
	}
	for w := 0; w < chaosWriters; w++ {
		h.writers = append(h.writers, NewWriter(uint32(w), int64(w*chaosPagesEach), chaosPagesEach,
			0, StampLen, cfg.Seed+int64(w)*1009))
	}
	for w := 0; w < chaosPairWriters; w++ {
		h.writers = append(h.writers, NewWriter(uint32(chaosWriters+w), chaosPages/2+int64(w*chaosPairsEach), chaosPairsEach,
			chaosPages/4, StampLen, cfg.Seed+int64(w)*2003+1))
	}

	if err := h.startServer(false); err != nil {
		return nil, err
	}
	defer func() {
		if h.cmd != nil {
			h.cmd.Process.Kill()
			h.cmd.Wait()
		}
	}()

	rep := &ChaosReport{Cycles: cfg.Cycles, Kills: cfg.Cycles}
	for cycle := 1; cycle <= cfg.Cycles; cycle++ {
		h.loadPhase()
		h.logf("cycle %d: killed server mid-load", cycle)
		if err := h.startServer(true); err != nil {
			return nil, fmt.Errorf("cycle %d restart: %w", cycle, err)
		}
		v, err := Verify(h.addr, h.writers, func(s string) { h.logf("cycle %d: %s", cycle, s) })
		if err != nil {
			return nil, fmt.Errorf("cycle %d verify: %w", cycle, err)
		}
		rep.LostAcked += v.Lost
		rep.StaleReads += v.Stale
		rep.Corrupt += v.Corrupt
		rep.TornPairs += v.Torn
		rep.PhantomSeqs += v.Phantom
		h.logf("cycle %d: verified %d stamped pages across %d writers", cycle, v.Pages, len(h.writers))
	}
	if err := h.shutdown(); err != nil {
		return nil, err
	}

	for _, w := range h.writers {
		rep.AckedCommits += w.Acked
		rep.VerifyFails += w.RYWFails
	}
	rep.ClientStats = h.faults
	h.logf("%s", rep)
	return rep, nil
}

// startServer spawns bpeserve on the shared directory and waits for health.
func (h *chaos) startServer(existing bool) error {
	args := []string{
		"-addr", h.addr,
		"-dir", h.cfg.Dir,
		"-pages", fmt.Sprint(chaosPages),
		"-page-size", fmt.Sprint(chaosPageSize),
		"-pool", fmt.Sprint(chaosPages / 4),
		"-concurrency", fmt.Sprint(chaosConcurrency),
		"-design", "nossd", "-ssd", "0",
		"-commit-sync", "group",
		"-max-inflight", fmt.Sprint(chaosMaxInflight),
		"-drain", "2s",
	}
	if existing {
		args = append(args, "-open-existing")
	}
	cmd := exec.Command(h.cfg.ServerBin, args...)
	if h.log != nil {
		cmd.Stdout = h.log
		cmd.Stderr = h.log
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	h.cmd = cmd
	if err := WaitHealthy(h.addr, 10*time.Second); err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		h.cmd = nil
		return fmt.Errorf("chaos: %w", err)
	}
	return nil
}

// killServer is the fault: SIGKILL, no warning, no flush.
func (h *chaos) killServer() {
	h.cmd.Process.Kill()
	h.cmd.Wait()
	h.cmd = nil
}

// shutdown exercises the graceful path: SIGTERM and a bounded wait.
func (h *chaos) shutdown() error {
	h.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- h.cmd.Wait() }()
	select {
	case err := <-done:
		h.cmd = nil
		return err
	case <-time.After(10 * time.Second):
		h.cmd.Process.Kill()
		<-done
		h.cmd = nil
		return errors.New("chaos: graceful shutdown timed out")
	}
}

// loadPhase runs every writer for CycleLen, kills the server mid-load,
// then stops the writers. A writer whose connection fails — the kill, or a
// server that is not back yet — retires the client and redials until
// stopped.
func (h *chaos) loadPhase() {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i, w := range h.writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				cl, err := netproto.Dial(netproto.ClientConfig{
					Addr: h.addr, Deadline: 2 * time.Second,
					MaxRetries: 10, MaxReconnects: 8,
					BaseBackoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
					Seed: uint64(h.cfg.Seed) + uint64(i),
				})
				if err != nil {
					time.Sleep(20 * time.Millisecond)
					continue
				}
				w.Run(cl, stop.Load, func(s string) { h.logf("%s", s) }) // an error means redial
				h.mu.Lock()
				metrics.Add(&h.faults, cl.Stats())
				h.mu.Unlock()
				cl.Close()
			}
		}()
	}
	time.Sleep(h.cfg.CycleLen)
	h.killServer()
	stop.Store(true)
	wg.Wait()
}
