package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/absint"
	"repro/internal/accel"
	"repro/internal/instrument"
	"repro/internal/model"
	"repro/internal/slice"
)

// Predictor persistence: a trained model is a handful of named
// coefficients plus an intercept, so it serializes to a small JSON
// document keyed by *feature names* rather than indices. Loading
// re-runs detection, instrumentation, and slicing against a freshly
// built netlist and re-binds the coefficients by name — so a saved
// model stays valid as long as the design's control structure (and
// hence its feature catalog) is unchanged, and loading fails loudly
// when it is not.

// SavedPredictor is the on-disk form of a trained predictor.
type SavedPredictor struct {
	// Benchmark names the accelerator the model was trained for.
	Benchmark string `json:"benchmark"`
	// Intercept and Terms define the linear model in raw feature units.
	Intercept float64     `json:"intercept"`
	Terms     []SavedTerm `json:"terms"`
	// Gamma records the selected L1 weight (informational).
	Gamma float64 `json:"gamma"`
	// FeaturesDetected guards against catalog drift.
	FeaturesDetected int `json:"features_detected"`
}

// SavedTerm is one non-zero coefficient.
type SavedTerm struct {
	Feature string  `json:"feature"`
	Coef    float64 `json:"coef"`
}

// Save serializes the trained model.
func (p *Predictor) Save() ([]byte, error) {
	sp := SavedPredictor{
		Benchmark:        p.Spec.Name,
		Intercept:        p.Model.Intercept,
		Gamma:            p.Gamma,
		FeaturesDetected: len(p.Ins.Features),
	}
	names := p.Ins.Names()
	for _, k := range p.Kept {
		sp.Terms = append(sp.Terms, SavedTerm{Feature: names[k], Coef: p.Model.Coef[k]})
	}
	return json.MarshalIndent(sp, "", "  ")
}

// Load rebuilds a predictor from a saved model and the accelerator
// spec: the netlist is rebuilt and re-instrumented, coefficients are
// re-bound by feature name, the hardware slice is regenerated for the
// model's features, and the timing cone is rebuilt.
func Load(data []byte, spec accel.Spec) (*Predictor, error) {
	var sp SavedPredictor
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("core: load predictor: %w", err)
	}
	if sp.Benchmark != spec.Name {
		return nil, fmt.Errorf("core: model is for %q, spec is %q", sp.Benchmark, spec.Name)
	}
	if len(sp.Terms) == 0 {
		return nil, fmt.Errorf("core: model has no terms")
	}
	ins, err := instrument.Instrument(spec.Build())
	if err != nil {
		return nil, err
	}
	if sp.FeaturesDetected != 0 && sp.FeaturesDetected != len(ins.Features) {
		return nil, fmt.Errorf("core: feature catalog changed: model saw %d features, design has %d",
			sp.FeaturesDetected, len(ins.Features))
	}
	byName := map[string]int{}
	for i, name := range ins.Names() {
		byName[name] = i
	}
	m := &model.Predictor{
		Coef:      make([]float64, len(ins.Features)),
		Intercept: sp.Intercept,
	}
	var kept []int
	for _, term := range sp.Terms {
		idx, ok := byName[term.Feature]
		if !ok {
			return nil, fmt.Errorf("core: feature %q no longer exists in %s", term.Feature, spec.Name)
		}
		m.Coef[idx] = term.Coef
		kept = append(kept, idx)
	}
	sl, err := slice.Slice(ins, kept, slice.DefaultOptions())
	if err != nil {
		return nil, err
	}
	pred := &Predictor{
		Spec:        spec,
		Ins:         ins,
		Model:       m,
		Gamma:       sp.Gamma,
		Kept:        kept,
		Slice:       sl,
		Bounds:      absint.Bounds(ins.M),
		SliceBounds: absint.Bounds(sl.M),
	}
	return pred.withSims()
}
