// Command bpesim runs the paper-reproduction experiments: one id per table
// or figure of "Turbocharging DBMS Buffer Pool Using SSDs" (SIGMOD 2011).
//
// Usage:
//
//	bpesim -list
//	bpesim [-divisor N] [-parallel W] <experiment-id> [<experiment-id>...]
//	bpesim all
//	bpesim -cpuprofile cpu.prof -memprofile mem.prof <experiment-id>
//
// The divisor scales the paper's sizes and clock down together (default
// 1024); smaller divisors are slower but closer to paper scale. -parallel
// sets the worker count for independent experiment cells (default
// GOMAXPROCS; 1 forces serial). Rendered output on stdout is
// byte-identical at any worker count: per-experiment wall-clock timings
// go to stderr.
//
// The faults experiment (crash/recover matrix) and the corrupt experiment
// (silent-corruption detect/repair matrix) ignore the divisor (their
// configurations are fixed so the tables are reproducible); -faultseed
// varies the injected fault schedules of both. See docs/FAILURES.md for
// the failure model they exercise.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"turbobp/internal/bufpool"
	"turbobp/internal/harness"
)

func main() {
	divisor := flag.Int64("divisor", harness.Default.Divisor, "scale divisor (1 = paper scale)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	csvOut := flag.Bool("csv", false, "emit figure data as CSV instead of rendered text (figure experiments only)")
	parallel := flag.Int("parallel", 0, "worker count for experiment cells (0 = GOMAXPROCS, 1 = serial)")
	cachePol := flag.String("policy", "", "the memory pool's policy for every engine the experiments build: lru2 (default) or cflru; the SSD tier is LRU-2 either way, and the policy experiment sweeps both regardless")
	faultSeed := flag.Uint64("faultseed", 0, "seed for the injected fault schedules of the faults and corrupt experiments (0 = the default, 0x5EEDFA17)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile taken at exit to this file")
	flag.Usage = usage
	flag.Parse()

	if *list {
		printList()
		return
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpesim: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bpesim: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bpesim: memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // material for the profile: live objects, not GC noise
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "bpesim: memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}
	harness.SetWorkers(*parallel)
	pol, err := bufpool.ParseKind(*cachePol)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpesim: %v\n", err)
		os.Exit(2)
	}
	scale := harness.Scale{Divisor: *divisor, Policy: pol, FaultSeed: *faultSeed}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = nil
		for _, e := range harness.Experiments() {
			args = append(args, e.ID)
		}
	}
	exps := make([]harness.Experiment, len(args))
	for i, id := range args {
		e, ok := harness.FindExperiment(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "bpesim: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		if *csvOut && !e.CSV {
			fmt.Fprintf(os.Stderr, "bpesim: experiment %q has no CSV form\n", id)
			os.Exit(2)
		}
		exps[i] = e
	}
	if *csvOut {
		for _, e := range exps {
			res, err := e.Run(scale)
			if err == nil {
				err = res.(harness.CSVWriter).WriteCSV(os.Stdout)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bpesim: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
		}
		return
	}
	if err := harness.RunAll(args, scale, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "bpesim: %v\n", err)
		os.Exit(1)
	}
}

func printList() {
	for _, e := range harness.Experiments() {
		fmt.Printf("%-12s %s\n", e.ID, e.Description)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bpesim [-divisor N] [-parallel W] [-cpuprofile FILE] [-memprofile FILE] <experiment-id>... | all | -list")
	printList()
}
