package harness

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// This file is the harness's parallel execution layer. Every experiment
// cell (one simulated run: an Env, an engine, a workload) is independent
// of every other, so a grid of cells can run on OS threads concurrently
// while each cell's virtual clock stays perfectly deterministic. Results
// are collected by index, so the rendered output of any experiment is
// byte-identical to a serial run.

var (
	workerMu sync.Mutex
	workerN  int
	// slots holds one token per *extra* goroutine the pool may spawn
	// beyond the callers themselves (capacity Workers()-1). Acquisition
	// never blocks: when no token is free the caller runs the cell
	// inline. That makes nested RunGrid calls (RunAll -> experiment ->
	// fig5OLTP) deadlock-free and bounds total concurrency globally.
	slots chan struct{}
)

func init() { SetWorkers(0) }

// SetWorkers sets the global worker budget shared by all RunGrid and
// RunAll calls and returns the effective budget. n = 1 forces fully serial
// execution; n <= 0 resets to runtime.GOMAXPROCS(0). Requests beyond
// GOMAXPROCS are capped there with a warning: simulation cells are pure
// CPU, so oversubscribing the scheduler only adds contention (measured as
// a parallel-suite slowdown on a single-processor runner).
func SetWorkers(n int) int {
	maxp := runtime.GOMAXPROCS(0)
	switch {
	case n <= 0:
		n = maxp
	case n > maxp:
		fmt.Fprintf(os.Stderr, "harness: %d workers requested but GOMAXPROCS=%d; capping at %d\n", n, maxp, maxp)
		n = maxp
	}
	workerMu.Lock()
	workerN = n
	slots = make(chan struct{}, n-1)
	workerMu.Unlock()
	return n
}

// EffectiveWorkers reports how much hardware parallelism n concurrent
// workers can actually get: min(n, GOMAXPROCS). Unlike SetWorkers it
// neither caps nor warns — network load drivers legitimately oversubscribe
// (their workers spend most of their time blocked on I/O) — it exists so
// reports can print the honest parallelism next to the requested worker
// count.
func EffectiveWorkers(n int) int {
	if maxp := runtime.GOMAXPROCS(0); n > maxp {
		return maxp
	}
	if n < 1 {
		return 1
	}
	return n
}

// Workers reports the current worker budget.
func Workers() int {
	workerMu.Lock()
	defer workerMu.Unlock()
	return workerN
}

// grabSlot reserves an extra-goroutine token, without blocking.
func grabSlot() (chan struct{}, bool) {
	workerMu.Lock()
	ch := slots
	workerMu.Unlock()
	if cap(ch) == 0 {
		return nil, false
	}
	select {
	case ch <- struct{}{}:
		return ch, true
	default:
		return nil, false
	}
}

// RunGrid evaluates fn(0) ... fn(n-1) on up to Workers() concurrent
// workers and returns the results in index order. Cells must be
// independent of one another. All cells run to completion even if some
// fail; the returned error is the lowest-index failure (deterministic
// regardless of scheduling), with the corresponding results left at
// their zero value.
func RunGrid[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if ch, ok := grabSlot(); ok {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-ch }()
				results[i], errs[i] = fn(i)
			}(i)
		} else {
			// Caller-runs fallback: the submitting goroutine is itself
			// one of the Workers() workers.
			results[i], errs[i] = fn(i)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// RunAll runs the named experiments through the worker pool. Each
// experiment's rendered output (header line included) is buffered and
// written to out in the order given, so stdout is byte-identical to a
// serial run no matter how many workers are active. Per-experiment
// wall-clock timings go to logw (typically stderr; nil discards them).
// An unknown id fails before anything runs; a result whose Verdict is an
// error fails its experiment with that error.
func RunAll(ids []string, scale Scale, out, logw io.Writer) error {
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, ok := FindExperiment(id)
		if !ok {
			return fmt.Errorf("harness: unknown experiment %q", id)
		}
		exps[i] = e
	}
	return runExperiments(exps, scale, out, logw)
}

func runExperiments(exps []Experiment, scale Scale, out, logw io.Writer) error {
	type cell struct {
		buf bytes.Buffer
		dur time.Duration
		err error
	}
	cells := make([]*cell, len(exps))
	for i := range cells {
		cells[i] = &cell{}
	}
	if _, err := RunGrid(len(exps), func(i int) (struct{}, error) {
		c := cells[i]
		fmt.Fprintf(&c.buf, "== %s — %s (divisor %d) ==\n",
			exps[i].ID, exps[i].Description, scale.Divisor)
		start := time.Now()
		var res Result
		res, c.err = exps[i].Run(scale)
		c.dur = time.Since(start)
		if c.err == nil {
			res.Print(&c.buf)
			c.buf.WriteByte('\n')
			if v, ok := res.(Verdict); ok {
				c.err = v.Err()
			}
		}
		return struct{}{}, nil
	}); err != nil {
		return err
	}
	for i, c := range cells {
		if c.err != nil {
			return fmt.Errorf("%s: %w", exps[i].ID, c.err)
		}
		if _, err := out.Write(c.buf.Bytes()); err != nil {
			return err
		}
		if logw != nil {
			fmt.Fprintf(logw, "-- %s done in %v --\n", exps[i].ID, c.dur.Round(time.Millisecond))
		}
	}
	return nil
}
