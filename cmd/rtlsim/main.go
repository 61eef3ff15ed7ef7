// Command rtlsim simulates a Verilog design with the repro rtl engine:
// load memory images, run to the done signal, optionally dump a VCD
// waveform for GTKWave.
//
// Usage:
//
//	rtlsim [-max N] [-vcd out.vcd] [-mem name=v0,v1,...] design.v
//
// The -mem flag repeats; each loads a scratchpad by name with decimal
// word values before the run. Example:
//
//	go run ./cmd/rtlsim -vcd fig8.vcd \
//	    -mem work=3,51,0,37 examples/verilogflow/fig8.v
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/rtl"

	// Register the suite's pre-generated native simulators so
	// -engine native resolves them for matching netlists.
	_ "repro/internal/rtl/native"

	"repro/internal/verilog"
)

// memFlags collects repeated -mem arguments.
type memFlags map[string][]uint64

func (m memFlags) String() string { return fmt.Sprintf("%d memories", len(m)) }

func (m memFlags) Set(s string) error {
	name, list, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=v0,v1,..., got %q", s)
	}
	var words []uint64
	if list != "" {
		for _, tok := range strings.Split(list, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(tok), 0, 64)
			if err != nil {
				return fmt.Errorf("bad word %q: %v", tok, err)
			}
			words = append(words, v)
		}
	}
	m[name] = words
	return nil
}

func main() {
	maxCycles := flag.Uint64("max", 1<<20, "cycle limit")
	vcdPath := flag.String("vcd", "", "write a VCD waveform here")
	engine := flag.String("engine", "", "RTL engine: native or interp (default: native, or $REPRO_ENGINE)")
	mems := memFlags{}
	flag.Var(mems, "mem", "load a memory: name=v0,v1,... (repeatable)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rtlsim [-engine e] [-max N] [-vcd out.vcd] [-mem name=v0,v1,...] design.v")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	m, err := verilog.ParseAndElaborate(string(src))
	if err != nil {
		fatal(err)
	}
	eng := rtl.DefaultEngine()
	if *engine != "" {
		if eng, err = rtl.ParseEngine(*engine); err != nil {
			fatal(err)
		}
	}
	sim := rtl.NewSimEngine(m, eng)
	for name, data := range mems { //detlint:allow each iteration loads a distinct memory; order-independent
		if err := sim.LoadMem(name, data); err != nil {
			fatal(err)
		}
	}

	var ticks uint64
	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		v := rtl.NewVCDWriter(f, m, nil)
		ticks, err = rtl.RunWithVCD(sim, v, *maxCycles)
		if err != nil {
			fatal(err)
		}
	} else {
		ticks, err = sim.Run(*maxCycles)
		if err != nil {
			fatal(err)
		}
	}

	fmt.Printf("%s finished in %d cycles\n", m.Name, ticks)
	for ri := range m.Regs {
		fmt.Printf("  %-24s = %d\n", m.Regs[ri].Name, sim.RegValue(ri))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rtlsim: %v\n", err)
	os.Exit(1)
}
