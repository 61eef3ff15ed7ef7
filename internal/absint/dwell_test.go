package absint

import (
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/rtl"
	"repro/internal/testdesigns"
)

// dwellDesign builds IDLE → LOAD → WAIT → DONE, where LOAD loads an
// 8-bit down-counter with load(b) on its way into WAIT, and WAIT exits
// once the counter reaches zero. The memory "in" holds job data.
func dwellDesign(load func(b *rtl.Builder, in *rtl.Mem) rtl.Signal) *rtl.Module {
	b := rtl.NewBuilder("dwell")
	in := b.Memory("in", 4)
	f := b.FSM("ctrl", 4)
	cnt := b.DownCounter("cnt", 8, f.In(1), load(b, in))
	f.Always(0, 1)
	f.Always(1, 2)
	f.When(2, cnt.EqK(0), 3)
	f.Build()
	b.SetDone(f.In(3))
	return b.MustBuild()
}

func waitDwells(m *rtl.Module) ([]WaitDwell, error) {
	return WaitDwells(Analyze(m), analyze.Analyze(m))
}

// TestWaitDwellsConstantLoad: a wait entered with its counter loaded
// with the constant 5 and left when it reaches 0 lasts 6 cycles per
// visit, 5 more than an elided wait, and the full design runs exactly
// IDLE + LOAD + 6 + DONE ticks.
func TestWaitDwellsConstantLoad(t *testing.T) {
	m := dwellDesign(func(b *rtl.Builder, _ *rtl.Mem) rtl.Signal { return b.Const(5, 8) })
	d, err := waitDwells(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 1 || d[0].State != 2 || d[0].Extra != 5 || len(d[0].Sources) != 1 || d[0].Sources[0] != 1 {
		t.Fatalf("dwells %+v, want one wait in state 2 entered from 1 with 5 extra cycles", d)
	}
	if ticks := runToDone(t, m, 100); ticks != 1+1+(d[0].Extra+1)+1 {
		t.Fatalf("design ran %d ticks, want %d", ticks, 1+1+(d[0].Extra+1)+1)
	}
}

// TestWaitDwellsRejectsDataLoad: a counter loaded from job data has no
// closed-form dwell, on a hand-built design and on Toy's slow path
// (whose fast path alone would qualify).
func TestWaitDwellsRejectsDataLoad(t *testing.T) {
	m := dwellDesign(func(b *rtl.Builder, in *rtl.Mem) rtl.Signal { return b.Read(in, b.Const(0, 2), 8) })
	if d, err := waitDwells(m); err == nil || !strings.Contains(err.Error(), "not loaded with a constant") {
		t.Fatalf("data-loaded wait: dwells %+v, err %v; want a non-constant load error", d, err)
	}
	toy := testdesigns.Toy()
	if d, err := waitDwells(toy.M); err == nil || !strings.Contains(err.Error(), "slow_cnt") {
		t.Fatalf("Toy: dwells %+v, err %v; want slow_cnt rejected", d, err)
	}
}

// TestWaitDwellsRejectsUnreachableLimit: a wrapping down-counter
// loaded 3 below its limit of 4 reaches it only after wrapping around,
// which the closed form does not model.
func TestWaitDwellsRejectsUnreachableLimit(t *testing.T) {
	b := rtl.NewBuilder("wrap")
	f := b.FSM("ctrl", 4)
	cnt := b.Reg("cnt", 8, 0)
	b.SetNext(cnt, f.In(1).Mux(b.Const(3, 8), cnt.Dec()))
	f.Always(0, 1)
	f.Always(1, 2)
	f.When(2, cnt.EqK(4), 3)
	f.Build()
	b.SetDone(f.In(3))
	if d, err := waitDwells(b.MustBuild()); err == nil || !strings.Contains(err.Error(), "cannot step") {
		t.Fatalf("dwells %+v, err %v; want a counter that cannot step onto its limit", d, err)
	}
}
