package main

import (
	"errors"
	"testing"

	"repro/internal/accel"
	"repro/internal/rtl"
	"repro/internal/suite"
)

// TestGeneratedRunMatchesInterp drives the multi-cycle path of every
// checked-in generated simulator: for each shape this command generates
// (timing cone, all-witness slice, trained and quick slices), one
// reused native Sim with activity off runs real jobs through
// accel.RunJob with three cycle limits — the benchmark's
// MaxTicks, 1, and one cycle short of the job's length — and after each
// run the tick count, the ErrNoProgress verdict, every node value and
// every memory word must equal a fresh interpreter run of the same job
// and limit. Values are only stored on the cycle a generated run
// returns, so these are the states that path must get exactly right.
func TestGeneratedRunMatchesInterp(t *testing.T) {
	for _, spec := range suite.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			vars, err := variants(spec)
			if err != nil {
				t.Fatal(err)
			}
			jobs := spec.TestJobs(23)
			if len(jobs) > 5 {
				jobs = jobs[:5]
			}
			seen := map[string]bool{}
			for _, v := range vars {
				fp := rtl.Fingerprint(v.m)
				if seen[fp] {
					continue
				}
				seen[fp] = true
				nat := rtl.NewSimEngine(v.m, rtl.EngineNative)
				if got := nat.Engine(); got != rtl.EngineNative {
					t.Fatalf("%s: engine %q (registry stale? run go generate ./internal/rtl/native)", v.name, got)
				}
				cutoffs := 0
				for _, job := range jobs {
					ticks := runBoth(t, v, nat, job, spec.MaxTicks)
					runBoth(t, v, nat, job, 1)
					if ticks > 1 {
						runBoth(t, v, nat, job, ticks-1)
						cutoffs++
					}
				}
				if cutoffs == 0 {
					t.Fatalf("%s: no job is longer than one tick, so no cutoff run", v.name)
				}
			}
		})
	}
}

// runBoth runs one job under one cycle limit on the reused native Sim
// and on a fresh interpreter, fails on any observable difference, and
// returns the interpreter's tick count.
func runBoth(t *testing.T, v variant, nat *rtl.Sim, job accel.Job, limit uint64) uint64 {
	t.Helper()
	ref := rtl.NewInterpSim(v.m)
	rt, rerr := accel.RunJob(ref, job, limit)
	nt, nerr := accel.RunJob(nat, job, limit)
	if rerr != nil && !errors.Is(rerr, rtl.ErrNoProgress) {
		t.Fatalf("%s limit %d: interp: %v", v.name, limit, rerr)
	}
	if nt != rt || nat.Cycles() != ref.Cycles() || errors.Is(nerr, rtl.ErrNoProgress) != errors.Is(rerr, rtl.ErrNoProgress) {
		t.Fatalf("%s limit %d: native ran %d ticks (err %v), interp %d (err %v)", v.name, limit, nt, nerr, rt, rerr)
	}
	for id := range v.m.Nodes {
		if nv, rv := nat.Value(rtl.NodeID(id)), ref.Value(rtl.NodeID(id)); nv != rv {
			t.Fatalf("%s limit %d node %d (%s): %#x (native) != %#x (interp)",
				v.name, limit, id, v.m.Nodes[id].Op, nv, rv)
		}
	}
	for _, mem := range v.m.Mems {
		nm, rm := nat.Mem(mem.Name), ref.Mem(mem.Name)
		for a := range rm {
			if nm[a] != rm[a] {
				t.Fatalf("%s limit %d mem %s[%d]: %#x (native) != %#x (interp)",
					v.name, limit, mem.Name, a, nm[a], rm[a])
			}
		}
	}
	return rt
}
