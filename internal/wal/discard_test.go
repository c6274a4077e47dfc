package wal

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"turbobp/internal/device"
	"turbobp/internal/page"
	"turbobp/internal/sim"
)

// logRun is what one drive of a log leaves behind for comparison.
type logRun struct {
	flushed  uint64
	next     uint64
	appends  int64
	flushes  int64
	pages    int64
	devWrite device.Snapshot
}

// driveLog runs the same workload against a fresh log, discarding or not:
// several tasks interleave update/undo records with payloads, commits and
// one checkpoint record carrying a table blob, each forcing the log with
// FlushTask so group commit coalesces their flushes. The workload depends
// only on a fixed PRNG and the virtual clock, never on the log's contents.
// It returns the log, its trace — every queue dispatch and every flush
// completion — and its end state.
func driveLog(t *testing.T, discard bool) (*Log, []string, logRun) {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Shutdown)
	dev := device.NewHDD(env, device.PaperHDDProfile(), 1<<16)
	l := New(env, dev, 512, 1<<16)
	if discard {
		l.DiscardDurable()
	}
	var run logRun
	var trace []string
	env.SetDispatchHook(func(at time.Duration, seq uint64) {
		trace = append(trace, fmt.Sprintf("d %v %d", at, seq))
	})
	const tasks, rounds = 5, 40
	for w := 0; w < tasks; w++ {
		state := uint64(w + 1)
		rnd := func(n int) int { // splitmix64
			state += 0x9E3779B97F4A7C15
			z := state
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			return int((z ^ (z >> 31)) % uint64(n))
		}
		env.Spawn(fmt.Sprintf("tx%d", w), func(tk *sim.Task) {
			round := 0
			var step func()
			step = func() {
				if round == rounds {
					return
				}
				round++
				tx := uint64(w*rounds + round)
				for i := rnd(4); i >= 0; i-- {
					pid := page.ID(rnd(64))
					l.Append(Record{Type: TypeUndo, Page: pid, TxID: tx, Payload: bytes.Repeat([]byte{byte(tx)}, rnd(300))})
					l.Append(Record{Type: TypeUpdate, Page: pid, TxID: tx, Payload: bytes.Repeat([]byte{byte(pid)}, 1+rnd(300))})
				}
				if w == 0 && round == rounds/2 {
					l.Append(Record{Type: TypeCheckpoint, StartLSN: 1, Payload: make([]byte, 2000)})
				}
				lsn := l.Append(Record{Type: TypeCommit, TxID: tx})
				l.FlushTask(tk, lsn, func() {
					trace = append(trace, fmt.Sprintf("f %d %d %v %d", w, lsn, tk.Now(), l.FlushedLSN()))
					tk.Sleep(time.Duration(rnd(5000))*time.Microsecond, step)
				})
			}
			tk.Sleep(time.Duration(rnd(1000))*time.Microsecond, step)
		})
	}
	env.Run(-1)
	run.flushed, run.next = l.FlushedLSN(), l.NextLSN()
	run.appends, run.flushes, run.pages = l.Stats()
	run.devWrite = dev.Stats().Load()
	return l, trace, run
}

// TestDiscardDurableMatchesRetainingLog holds a discarding log to the
// retaining one: same dispatch trace, same LSNs, same flush counts and the
// same log-device traffic. Only the kept records differ.
func TestDiscardDurableMatchesRetainingLog(t *testing.T) {
	kept, wantTrace, want := driveLog(t, false)
	_, gotTrace, got := driveLog(t, true)

	if len(wantTrace) == 0 || want.flushes < 2 || want.flushes >= int64(5*40) {
		t.Fatalf("workload too weak: %d trace lines, %d flushes (want group commit to coalesce some)",
			len(wantTrace), want.flushes)
	}
	if want.devWrite.WritePages <= want.devWrite.WriteOps {
		t.Fatalf("no multi-page flush: %d pages in %d writes", want.devWrite.WritePages, want.devWrite.WriteOps)
	}
	if len(gotTrace) != len(wantTrace) {
		t.Fatalf("trace lengths differ: discarding %d, retaining %d", len(gotTrace), len(wantTrace))
	}
	for i := range wantTrace {
		if gotTrace[i] != wantTrace[i] {
			t.Fatalf("traces diverge at line %d: discarding %q, retaining %q", i, gotTrace[i], wantTrace[i])
		}
	}
	if got != want {
		t.Errorf("discarding log ended at %+v, retaining at %+v", got, want)
	}
	if n := len(kept.Durable()); uint64(n) != want.flushed {
		t.Errorf("retaining log kept %d records, want %d", n, want.flushed)
	}
}

// TestDiscardDurableReadersPanic checks that every reader of record bodies,
// and Crash, fails loudly on a discarding log instead of reporting an empty
// one.
func TestDiscardDurableReadersPanic(t *testing.T) {
	l, _, _ := driveLog(t, true)
	readers := map[string]func(){
		"Durable":        func() { l.Durable() },
		"PendingRecords": func() { l.PendingRecords() },
		"LatestUpdate":   func() { l.LatestUpdate(1) },
		"LastCheckpoint": func() { l.LastCheckpoint() },
		"LoadDurable":    func() { _ = l.LoadDurable() },
		"WriteTo":        func() { _, _ = l.WriteTo(&bytes.Buffer{}) },
		"ReadDurable":    func() { _ = l.ReadDurable(&bytes.Buffer{}) },
		"Crash":          l.Crash,
	}
	for name, f := range readers {
		mustPanicNaming(t, name, "DiscardDurable", f)
	}
}

// TestDiscardDurableRefusesPersist checks that a log cannot both discard
// its records and persist them, whichever is asked first.
func TestDiscardDurableRefusesPersist(t *testing.T) {
	env := sim.NewEnv()
	defer env.Shutdown()
	l, _ := newTestLog(env)
	l.DiscardDurable()
	mustPanicNaming(t, "SetPersist after DiscardDurable", "DiscardDurable", func() { l.SetPersist(true) })
	l.SetPersist(false) // turning persistence off is harmless

	l, _ = newTestLog(env)
	l.SetPersist(true)
	mustPanicNaming(t, "DiscardDurable after SetPersist", "DiscardDurable", l.DiscardDurable)
}

// mustPanicNaming fails unless f panics with a message containing word.
func mustPanicNaming(t *testing.T, what, word string, f func()) {
	t.Helper()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, word) {
			t.Errorf("%s: panic %q, want one naming %s", what, msg, word)
		}
	}()
	f()
}
