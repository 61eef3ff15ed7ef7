package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/absint"
	"repro/internal/accel"
	"repro/internal/instrument"
	"repro/internal/rtl"
	"repro/internal/rtl/codegen"
	"repro/internal/suite"
)

// quickTrainJobs is exp.QuickJobs, the length of the training-job
// prefix a quick lab trains on (exp imports core, so the test cannot).
const quickTrainJobs = 60

// TestTrainingSetMatchesPrunedFullDesign is the exactness gate for
// Train's simulators. The feature matrix and targets simulateTrainingSet
// takes from the timing cone (ticks) and the all-witness slice
// (features) must be bit-identical (math.Float64bits) to those of the
// absint-pruned full instrumented design, which computes every feature
// and the design's ticks in one run. It covers every training job of
// all seven benchmarks at seeds 42, 43 and 7, and the quick lab's
// training subset. The reference runs on the codegen plan, since no
// flow simulates the pruned full design and none of its code is
// generated. -short and -race builds take every 16th job.
func TestTrainingSetMatchesPrunedFullDesign(t *testing.T) {
	stride := 1
	if testing.Short() || raceEnabled {
		stride = 16
	}
	for _, spec := range suite.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			ins, err := instrument.Instrument(spec.Build())
			if err != nil {
				t.Fatal(err)
			}
			featRegs := make([]int, len(ins.Features))
			for i, f := range ins.Features {
				featRegs[i] = f.Witness
			}
			pm, regMap := absint.Prune(ins.M, featRegs)
			for i, ri := range featRegs {
				featRegs[i] = regMap[ri]
			}
			ref := rtl.NewNativeSim(pm, codegen.Build(pm).Step)
			av := absint.Analyze(ins.M)
			bounds := absint.Bounds(ins.M)
			sets := map[string][]accel.Job{"quick": spec.TrainJobs(42)[:quickTrainJobs]}
			for _, seed := range []int64{42, 43, 7} {
				sets[fmt.Sprintf("seed %d", seed)] = spec.TrainJobs(seed)
			}
			for name, all := range sets { //detlint:allow independent job sets, order immaterial for pass/fail
				var jobs []accel.Job
				for i := 0; i < len(all); i += stride {
					jobs = append(jobs, all[i])
				}
				X, y, _, _, err := simulateTrainingSet(spec, ins, av, bounds, jobs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for ji, job := range jobs {
					ticks, err := accel.RunJob(ref, job, spec.MaxTicks)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := y[ji], spec.Seconds(ticks); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s job %d: y = %v, pruned full design %v (%d ticks)", name, ji, got, want, ticks)
					}
					if len(X[ji]) != len(featRegs) {
						t.Fatalf("%s job %d: %d features, want %d", name, ji, len(X[ji]), len(featRegs))
					}
					for k, ri := range featRegs {
						if got, want := X[ji][k], float64(ref.RegValue(ri)); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s job %d: feature %s = %v, pruned full design %v",
								name, ji, ins.Features[k].Name, got, want)
						}
					}
				}
			}
		})
	}
}
