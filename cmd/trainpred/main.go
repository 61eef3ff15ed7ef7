// Command trainpred trains the execution-time predictor for one (or
// every) benchmark and reports its accuracy on the held-out test
// workload — the per-benchmark data behind the paper's Figure 10.
//
// Usage:
//
//	trainpred [-seed N] [-engine E] [-save model.json] [-load model.json] [benchmark]
//
// Without an argument every benchmark is trained. -save writes the
// trained model (named coefficients) as JSON, replacing the file
// crash-safely: a crash mid-save leaves the previous model, never a
// torn one. -load skips training and evaluates a previously saved model
// instead. -engine selects the RTL engine: native (the default) runs
// pre-generated straight-line code where registered and the codegen
// plan elsewhere; interp is the reference interpreter.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/rtl"
	"repro/internal/suite"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks command-line errors (exit status 2).
var errUsage = errors.New("usage")

func usage(err error) error { return fmt.Errorf("%w: %v", errUsage, err) }

// run parses args, trains or loads each predictor, and writes its
// report to stdout. faults is consulted by the -save writer (nil never
// injects).
func run(args []string, stdout, stderr io.Writer, faults *fault.Injector) error {
	fs := flag.NewFlagSet("trainpred", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 42, "workload generation seed")
	save := fs.String("save", "", "write the trained model as JSON (single benchmark only)")
	load := fs.String("load", "", "evaluate a saved model instead of training")
	engine := fs.String("engine", "", "RTL engine: native or interp (default: native, or $REPRO_ENGINE)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usage(err)
	}

	if *engine != "" {
		if err := rtl.SetDefaultEngine(rtl.Engine(*engine)); err != nil {
			return usage(err)
		}
	}

	names := suite.Names()
	if fs.NArg() == 1 {
		names = []string{fs.Arg(0)}
	} else if fs.NArg() > 1 {
		return usage(errors.New("trainpred [-seed N] [-engine e] [-save f] [-load f] [benchmark]"))
	}
	if (*save != "" || *load != "") && len(names) != 1 {
		return usage(errors.New("-save/-load require a single benchmark"))
	}

	for _, name := range names {
		spec, err := suite.ByName(name)
		if err != nil {
			return err
		}
		var pred *core.Predictor
		if *load != "" {
			data, err := os.ReadFile(*load)
			if err != nil {
				return err
			}
			pred, err = core.Load(data, spec)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "loaded %s model from %s (%d terms)\n", name, *load, len(pred.Kept))
		} else {
			pred, err = core.Train(spec, core.Options{Seed: *seed})
			if err != nil {
				return err
			}
		}
		if *save != "" {
			data, err := pred.Save()
			if err != nil {
				return err
			}
			if err := atomicfile.WriteFile(*save, data, faults); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "saved model to %s\n", *save)
		}
		fmt.Fprint(stdout, pred.Report())
		errs, err := pred.EvaluateTest(spec.TestJobs(*seed + 1))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  test error: median %+.2f%%, p25 %+.2f%%, p75 %+.2f%%, range [%+.2f%%, %+.2f%%]\n",
			100*errs.Median, 100*errs.P25, 100*errs.P75, 100*errs.Min, 100*errs.Max)
		fmt.Fprintf(stdout, "  under-predicted %.1f%% of jobs (worst %+.2f%%)\n\n",
			100*errs.UnderFrac, 100*errs.WorstUnder)
	}
	fmt.Fprintf(stdout, "jobs simulated: %d\n", core.SimulatedJobs())
	return nil
}
