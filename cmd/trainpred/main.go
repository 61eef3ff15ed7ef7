// Command trainpred trains the execution-time predictor for one (or
// every) benchmark and reports its accuracy on the held-out test
// workload — the per-benchmark data behind the paper's Figure 10.
//
// Usage:
//
//	trainpred [-seed N] [-engine E] [-cachedir dir] [-save model.json] [-load model.json] [benchmark]
//
// Without an argument every benchmark is trained. -save writes the
// trained model (named coefficients) as JSON; -load skips training and
// evaluates a previously saved model instead. -cachedir (or
// REPRO_CACHE_DIR) enables the persistent trace cache, so retraining
// with unchanged netlists and workloads skips all RTL simulation.
// -engine selects the RTL engine: native (the default) runs
// pre-generated straight-line code where registered and the codegen
// plan elsewhere; interp is the reference interpreter.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/rtl"
	"repro/internal/suite"
	"repro/internal/tracecache"
)

func main() {
	seed := flag.Int64("seed", 42, "workload generation seed")
	save := flag.String("save", "", "write the trained model as JSON (single benchmark only)")
	load := flag.String("load", "", "evaluate a saved model instead of training")
	engine := flag.String("engine", "", "RTL engine: native or interp (default: native, or $REPRO_ENGINE)")
	cacheDir := flag.String("cachedir", os.Getenv("REPRO_CACHE_DIR"),
		"persistent trace cache directory (default: $REPRO_CACHE_DIR; empty disables)")
	flag.Parse()

	if *engine != "" {
		if err := rtl.SetDefaultEngine(rtl.Engine(*engine)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	var cache *tracecache.Cache
	if *cacheDir != "" {
		var err error
		cache, err = tracecache.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		core.SetTraceCache(cache)
	}

	names := suite.Names()
	if flag.NArg() == 1 {
		names = []string{flag.Arg(0)}
	} else if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: trainpred [-seed N] [-engine e] [-save f] [-load f] [benchmark]")
		os.Exit(2)
	}
	if (*save != "" || *load != "") && len(names) != 1 {
		fmt.Fprintln(os.Stderr, "trainpred: -save/-load require a single benchmark")
		os.Exit(2)
	}

	for _, name := range names {
		spec, err := suite.ByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var pred *core.Predictor
		if *load != "" {
			data, err := os.ReadFile(*load)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			pred, err = core.Load(data, spec)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("loaded %s model from %s (%d terms)\n", name, *load, len(pred.Kept))
		} else {
			pred, err = core.Train(spec, core.Options{Seed: *seed})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *save != "" {
			data, err := pred.Save()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := os.WriteFile(*save, data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("saved model to %s\n", *save)
		}
		fmt.Print(pred.Report())
		errs, err := pred.EvaluateTest(spec.TestJobs(*seed + 1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  test error: median %+.2f%%, p25 %+.2f%%, p75 %+.2f%%, range [%+.2f%%, %+.2f%%]\n",
			100*errs.Median, 100*errs.P25, 100*errs.P75, 100*errs.Min, 100*errs.Max)
		fmt.Printf("  under-predicted %.1f%% of jobs (worst %+.2f%%)\n\n",
			100*errs.UnderFrac, 100*errs.WorstUnder)
	}
	if cache != nil {
		fmt.Printf("trace cache [%s]: %s; ", cache.Dir(), cache.Stats())
	}
	fmt.Printf("jobs simulated: %d\n", core.SimulatedJobs())
}
