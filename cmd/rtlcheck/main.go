// Command rtlcheck runs the netlist lint & verification suite of
// package lint over accelerators, testdesigns, or Verilog files, and
// prints structured diagnostics. It exits nonzero when any
// error-severity finding survives filtering, so CI can gate on it.
//
// Usage:
//
//	rtlcheck [flags] <target>...
//
// A target is a benchmark name (h264, cjpeg, djpeg, md, stencil, aes,
// sha), the word "all" (the whole suite), "testdesigns" (the simulation
// test designs), or a path to a .v file (parsed, elaborated, and linted
// with source spans; elaboration warnings become diagnostics too).
//
// Flags:
//
//	-rules            print the rule catalog and exit
//	-enable ids       comma-separated rule IDs to run (default: all)
//	-suppress ids     comma-separated rule IDs to drop
//	-min severity     drop findings below info|warning|error (default info)
//	-json             emit diagnostics as JSON
//	-bounds           print the static cycle-bound table instead of linting
//
// With -bounds, each target design is analyzed with the abstract
// interpreter and its static [MinCycles, MaxCycles] window printed; for
// benchmark targets the hardware slice's bounds are printed too. The
// exit status is 1 if any design has no finite upper bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/absint"
	"repro/internal/instrument"
	"repro/internal/lint"
	"repro/internal/rtl"
	"repro/internal/slice"
	"repro/internal/suite"
	"repro/internal/testdesigns"
	"repro/internal/verilog"
)

func main() {
	showRules := flag.Bool("rules", false, "print the rule catalog and exit")
	enable := flag.String("enable", "", "comma-separated rule IDs to run (default: all)")
	suppress := flag.String("suppress", "", "comma-separated rule IDs to drop")
	minSev := flag.String("min", "info", "drop findings below this severity (info|warning|error)")
	asJSON := flag.Bool("json", false, "emit diagnostics as JSON")
	showBounds := flag.Bool("bounds", false, "print the static cycle-bound table instead of linting")
	flag.Parse()

	if *showRules {
		printCatalog()
		return
	}
	if *showBounds {
		os.Exit(runBounds(flag.Args()))
	}
	if flag.NArg() == 0 {
		fmt.Fprintf(os.Stderr, "usage: rtlcheck [flags] <target>...\ntargets: benchmark name %v, \"all\", \"testdesigns\", or a .v file\n", suite.Names())
		os.Exit(2)
	}

	cfg := lint.Config{Enable: splitIDs(*enable), Suppress: splitIDs(*suppress)}
	sev, err := lint.ParseSeverity(*minSev)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.MinSeverity = sev

	var all []lint.Diagnostic
	errors := 0
	for _, target := range flag.Args() {
		diags, err := lintTarget(target, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		all = append(all, diags...)
	}
	lint.SortDiagnostics(all)
	for _, d := range all {
		if d.Sev == lint.Error {
			errors++
		}
		if !*asJSON {
			fmt.Println(d)
		}
	}
	if *asJSON {
		if err := writeJSON(os.Stdout, all); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		fmt.Printf("%d diagnostic(s), %d error(s)\n", len(all), errors)
	}
	if errors > 0 {
		os.Exit(1)
	}
}

// lintTarget resolves one command-line target to a set of designs and
// lints each.
func lintTarget(target string, cfg lint.Config) ([]lint.Diagnostic, error) {
	if strings.HasSuffix(target, ".v") {
		return lintVerilog(target, cfg)
	}
	var mods []*rtl.Module
	switch target {
	case "all":
		for _, spec := range suite.All() {
			mods = append(mods, spec.Build())
		}
	case "testdesigns":
		hand, _ := testdesigns.HandFSM()
		mods = append(mods, testdesigns.Toy().M, hand)
	default:
		spec, err := suite.ByName(target)
		if err != nil {
			return nil, err
		}
		mods = append(mods, spec.Build())
	}
	var out []lint.Diagnostic
	for _, m := range mods {
		out = append(out, lint.Run(m, cfg).Diags...)
	}
	return out, nil
}

// lintVerilog parses and elaborates a Verilog file (top = the last
// module, matching the elaborator's convention for single-file input),
// converts elaboration warnings to diagnostics, and lints the netlist.
// A hard elaboration error (e.g. a wire read but never driven) is
// reported as a single error-severity diagnostic rather than aborting,
// so one broken file doesn't hide findings in the others.
func lintVerilog(path string, cfg lint.Config) ([]lint.Diagnostic, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	mods, err := verilog.ParseFileNamed(string(src), path)
	if err != nil {
		return nil, err
	}
	top := mods[len(mods)-1].Name
	m, warns, err := verilog.ElaborateHierarchyWarn(mods, top)
	diags := lint.ConvertWarnings(top, warns, cfg)
	if err != nil {
		diags = append(diags, lint.Diagnostic{
			Design: top,
			Rule:   "never-driven",
			Sev:    lint.Error,
			Msg:    err.Error(),
			Spans:  []rtl.SrcLoc{{File: path, Line: 1}},
		})
		return diags, nil
	}
	return append(diags, lint.Run(m, cfg).Diags...), nil
}

// runBounds implements -bounds: it prints the static cycle-bound table
// for each target design (and the hardware slice, for benchmark
// targets) and returns the exit code — 1 if any bound is not finite.
func runBounds(targets []string) int {
	if len(targets) == 0 {
		fmt.Fprintf(os.Stderr, "usage: rtlcheck -bounds <target>...\ntargets: benchmark name %v, \"all\", \"testdesigns\", or a .v file\n", suite.Names())
		return 2
	}
	fmt.Printf("%-18s %12s %14s\n", "DESIGN", "MIN", "MAX")
	unbounded := 0
	for _, target := range targets {
		rows, err := boundsTarget(target)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		for _, r := range rows {
			max := fmt.Sprintf("%d", r.b.Max)
			if !r.b.MaxBounded {
				max = "+Inf"
				unbounded++
			}
			fmt.Printf("%-18s %12d %14s\n", r.name, r.b.Min, max)
			if !r.b.MaxBounded {
				fmt.Printf("  unbounded: %s\n", r.b.Reason)
				for _, uw := range r.b.Unbounded {
					fmt.Printf("  state %d (%s): %s\n", uw.State, uw.Kind, uw.Reason)
				}
			}
		}
	}
	if unbounded > 0 {
		fmt.Printf("%d design(s) without a finite upper bound\n", unbounded)
		return 1
	}
	return 0
}

type boundsRow struct {
	name string
	b    absint.CycleBounds
}

// boundsTarget resolves one target to designs and computes their static
// cycle bounds. Benchmark targets also get their full hardware slice —
// the module trace collection actually simulates.
func boundsTarget(target string) ([]boundsRow, error) {
	if strings.HasSuffix(target, ".v") {
		src, err := os.ReadFile(target)
		if err != nil {
			return nil, err
		}
		mods, err := verilog.ParseFileNamed(string(src), target)
		if err != nil {
			return nil, err
		}
		m, _, err := verilog.ElaborateHierarchyWarn(mods, mods[len(mods)-1].Name)
		if err != nil {
			return nil, err
		}
		return []boundsRow{{m.Name, absint.Bounds(m)}}, nil
	}
	var specs []string
	switch target {
	case "all":
		specs = suite.Names()
	case "testdesigns":
		hand, _ := testdesigns.HandFSM()
		return []boundsRow{
			{"toy", absint.Bounds(testdesigns.Toy().M)},
			{hand.Name, absint.Bounds(hand)},
		}, nil
	default:
		specs = []string{target}
	}
	var rows []boundsRow
	for _, name := range specs {
		spec, err := suite.ByName(name)
		if err != nil {
			return nil, err
		}
		m := spec.Build()
		rows = append(rows, boundsRow{spec.Name, absint.Bounds(m)})
		ins, err := instrument.Instrument(m)
		if err != nil {
			return nil, fmt.Errorf("rtlcheck: instrument %s: %w", spec.Name, err)
		}
		keep := make([]int, len(ins.Features))
		for i := range keep {
			keep[i] = i
		}
		sl, err := slice.Slice(ins, keep, slice.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("rtlcheck: slice %s: %w", spec.Name, err)
		}
		rows = append(rows, boundsRow{spec.Name + "/slice", absint.Bounds(sl.M)})
	}
	return rows, nil
}

func splitIDs(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, id := range strings.Split(s, ",") {
		if id = strings.TrimSpace(id); id != "" {
			out = append(out, id)
		}
	}
	return out
}

func printCatalog() {
	fmt.Printf("%-18s %-8s %s\n", "RULE", "SEVERITY", "GUARDS AGAINST")
	for _, r := range lint.Rules() {
		fmt.Printf("%-18s %-8s %s\n", r.ID, r.Sev, r.Doc)
	}
}

// jsonDiag is the JSON shape of a diagnostic (severity as a string).
type jsonDiag struct {
	Design string   `json:"design"`
	Rule   string   `json:"rule"`
	Sev    string   `json:"severity"`
	Msg    string   `json:"msg"`
	Spans  []string `json:"spans,omitempty"`
}

func writeJSON(w *os.File, diags []lint.Diagnostic) error {
	out := make([]jsonDiag, len(diags))
	for i, d := range diags {
		out[i] = jsonDiag{Design: d.Design, Rule: d.Rule, Sev: d.Sev.String(), Msg: d.Msg}
		for _, sp := range d.Spans {
			out[i].Spans = append(out[i].Spans, sp.String())
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
