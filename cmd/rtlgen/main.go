// Command rtlgen pre-generates the native (codegen) simulators that
// internal/rtl/native registers at init. For every benchmark in the
// suite it translates the netlist shapes the production flows actually
// simulate into specialized straight-line Go via internal/rtl/codegen:
//
//   - the raw spec netlist (testbench and differential-test runs),
//   - the instrumented design (unpruned: simbench and tests run it),
//   - its pruned twin (the full-design simulator core.Train binds),
//   - its timing cone (core.TimingCone: the ground-truth simulator of
//     every JobSimulator; model-independent, so one per benchmark),
//   - the keep-everything slice (the suite tests' shape),
//   - the trained predictor slice for the canonical training seed (42,
//     the default of simbench/slicegen) — the latency-critical module
//     on the serving path, and
//   - the slice a quick exp.Lab trains (dvfsim -quick, the exp tests):
//     the same seed on its first exp.QuickJobs training jobs, which
//     for most benchmarks has the full-trained slice's fingerprint.
//
// Variants are deduplicated by netlist fingerprint across the whole
// run, one generated file per benchmark. Output is deterministic for a
// given repo state, which is what lets CI enforce the drift gate
// (go generate ./... && git diff --exit-code).
//
// Run via go generate ./internal/rtl/native (see the //go:generate
// directive there), or directly:
//
//	go run repro/cmd/rtlgen -out internal/rtl/native
//
// rtlgen links the package it rewrites (through core), so after a
// change that stops the checked-in gen_*.go files compiling — a new
// rtl.NativeStep signature, say — delete them first; training then
// runs on the plan fallback and the output is the same.
package main

import (
	"flag"
	"fmt"
	"go/format"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/absint"
	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/instrument"
	"repro/internal/rtl"
	"repro/internal/rtl/codegen"
	"repro/internal/slice"
	"repro/internal/suite"
)

// trainSeed is the canonical workload seed the generated predictor
// slices are trained with; it matches the simbench and slicegen
// defaults so their Train calls hit the registry.
const trainSeed = 42

type variant struct {
	name string
	m    *rtl.Module
}

func main() {
	out := flag.String("out", ".", "directory to write gen_*.go files into")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("rtlgen: ")

	// Regenerate from scratch so benchmarks removed from the suite do
	// not leave stale registrations behind.
	stale, err := filepath.Glob(filepath.Join(*out, "gen_*.go"))
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range stale {
		if err := os.Remove(f); err != nil {
			log.Fatal(err)
		}
	}

	seen := map[string]string{} // fingerprint -> variant name
	for _, spec := range suite.All() {
		vars, err := variants(spec)
		if err != nil {
			log.Fatalf("%s: %v", spec.Name, err)
		}
		src, kept, err := genFile(spec.Name, vars, seen)
		if err != nil {
			log.Fatalf("%s: %v", spec.Name, err)
		}
		path := filepath.Join(*out, "gen_"+spec.Name+".go")
		if err := os.WriteFile(path, src, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("%s: %d variants (%d deduplicated), %d KiB",
			spec.Name, len(vars), len(vars)-kept, len(src)/1024)
	}
}

// variants builds the netlist shapes worth pre-generating for one
// benchmark, mirroring the exact transformations the production flows
// apply (instrument, bindFull's prune, the timing cone, keep-all slice,
// trained slices).
func variants(spec accel.Spec) ([]variant, error) {
	vars := []variant{{spec.Name, spec.Build()}}

	ins, err := instrument.Instrument(spec.Build())
	if err != nil {
		return nil, err
	}
	vars = append(vars, variant{spec.Name + "_ins", ins.M})

	featRegs := make([]int, len(ins.Features))
	for i, f := range ins.Features {
		featRegs[i] = f.Witness
	}
	pm, _ := absint.Prune(ins.M, featRegs)
	vars = append(vars, variant{spec.Name + "_pruned", pm})

	cone, err := core.TimingCone(ins)
	if err != nil {
		return nil, err
	}
	vars = append(vars, variant{spec.Name + "_cone", cone.M})

	keep := make([]int, len(ins.Features))
	for i := range keep {
		keep[i] = i
	}
	slAll, err := slice.Slice(ins, keep, slice.DefaultOptions())
	if err != nil {
		return nil, err
	}
	vars = append(vars, variant{spec.Name + "_slice_all", slAll.M})

	pred, err := core.Train(spec, core.Options{Seed: trainSeed})
	if err != nil {
		return nil, err
	}
	vars = append(vars, variant{spec.Name + "_slice_t" + fmt.Sprint(trainSeed), pred.Slice.M})

	jobs := spec.TrainJobs(trainSeed)
	if len(jobs) > exp.QuickJobs {
		jobs = jobs[:exp.QuickJobs]
	}
	quick, err := core.Train(spec, core.Options{Seed: trainSeed, TrainJobs: jobs})
	if err != nil {
		return nil, err
	}
	vars = append(vars, variant{spec.Name + "_slice_quick", quick.Slice.M})
	return vars, nil
}

// genFile renders one benchmark's generated file and reports how many
// of its variants were kept (the rest were fingerprint-duplicates of
// already-generated code).
func genFile(bench string, vars []variant, seen map[string]string) ([]byte, int, error) {
	type reg struct{ fp, name, fn string }
	var regs []reg
	var body strings.Builder
	kept := 0
	for _, v := range vars {
		fp := rtl.Fingerprint(v.m)
		if _, ok := seen[fp]; ok {
			// Same fingerprint ⇒ identical simulation semantics; the
			// earlier registration already covers this module.
			continue
		}
		seen[fp] = v.name
		kept++
		fn := "step_" + v.name
		body.WriteString(codegen.EmitFunc(codegen.Build(v.m), fn))
		body.WriteString("\n")
		regs = append(regs, reg{fp, v.name, fn})
	}

	var b strings.Builder
	b.WriteString("// Code generated by rtlgen. DO NOT EDIT.\n")
	b.WriteString("//\n// Regenerate with: go generate ./internal/rtl/native\n\n")
	b.WriteString("package native\n\n")
	if len(regs) > 0 {
		b.WriteString("import \"repro/internal/rtl\"\n\n")
		b.WriteString(body.String())
		b.WriteString("func init() {\n")
		for _, r := range regs {
			fmt.Fprintf(&b, "rtl.RegisterNative(%q, %q, %s)\n", r.fp, r.name, r.fn)
		}
		b.WriteString("}\n")
	}

	src, err := format.Source([]byte(b.String()))
	if err != nil {
		return nil, 0, fmt.Errorf("generated code for %s does not format: %w", bench, err)
	}
	return src, kept, nil
}
