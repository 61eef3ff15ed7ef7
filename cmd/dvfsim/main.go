// Command dvfsim runs the paper's evaluation experiments and prints
// their tables.
//
// Usage:
//
//	dvfsim [-seed N] [-quick] [-workers N] [-list] [experiment ...]
//
// With no experiment arguments, every table and figure is regenerated
// in paper order. Experiment IDs: table3, table4, fig2, fig3, fig10,
// fig11, fig12, fig13, fig14, fig15, fig16, fig17, fig18, fig19,
// casestudy.
//
// Job-level RTL simulation and each predictor's γ sweep fan out across
// -workers goroutines (default: GOMAXPROCS); results are deterministic
// regardless of the worker count. -engine selects the RTL engine: native (the default),
// which runs the pre-generated code in internal/rtl/native and falls
// back to the codegen plan for unregistered netlists, or interp. The
// run ends by reporting "native fallbacks: N", the netlists that had
// no generated simulator.
// -cpuprofile/-memprofile write pprof profiles of the run for
// "Profiling the simulator" in README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/rtl"
)

func main() {
	seed := flag.Int64("seed", 42, "workload generation seed")
	quick := flag.Bool("quick", false, "trim workloads for a fast run")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	charts := flag.Bool("charts", false, "render ASCII plots for figure experiments")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	workers := flag.Int("workers", 0, "parallel job-simulation and γ-sweep workers (0 = GOMAXPROCS)")
	engine := flag.String("engine", "", "RTL engine: native or interp (default: native, or $REPRO_ENGINE)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if *list {
		for _, id := range exp.ExperimentIDs {
			fmt.Println(id)
		}
		return
	}

	core.SetWorkers(*workers)
	if *engine != "" {
		if err := rtl.SetDefaultEngine(rtl.Engine(*engine)); err != nil {
			fmt.Fprintf(os.Stderr, "dvfsim: %v\n", err)
			os.Exit(2)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvfsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dvfsim: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	lab := exp.NewLab(*seed)
	lab.Quick = *quick

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "dvfsim: %v\n", err)
			os.Exit(1)
		}
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = exp.ExperimentIDs
	}
	start := time.Now() //detlint:allow wall-clock progress reporting only; results are seed-driven
	// Train all benchmarks up front, in parallel, so the serial
	// experiment loop below replays cached traces.
	if err := lab.Warm(); err != nil {
		fmt.Fprintf(os.Stderr, "dvfsim: %v\n", err)
		os.Exit(1)
	}
	for _, id := range ids {
		t, err := exp.Run(lab, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvfsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
		if *charts {
			chart, err := exp.Chart(lab, id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dvfsim: %v\n", err)
				os.Exit(1)
			}
			if chart != "" {
				fmt.Println(chart)
			}
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, t.ID+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "dvfsim: %v\n", err)
				os.Exit(1)
			}
		}
	}
	fmt.Printf("completed %d experiment(s) in %s\n", len(ids), time.Since(start).Round(time.Millisecond))
	fmt.Printf("jobs simulated: %d\n", core.SimulatedJobs())
	fmt.Printf("native fallbacks: %d\n", rtl.NativeFallbacks())

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvfsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dvfsim: %v\n", err)
			os.Exit(1)
		}
	}
}
