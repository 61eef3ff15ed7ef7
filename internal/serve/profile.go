package serve

import (
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/sim"
)

// Profile bundles the accelerator-side pieces of a serving
// configuration: the trained predictor, the DVFS device, the energy
// models, and the deadline/margin contract. It is the composable unit
// the fleet layer shares — a cluster pool hands the same Profile to
// every replica shard it spawns and to its own router-side governor
// projections, so placement decisions and replica accounting are built
// from one set of parts.
type Profile struct {
	// Pred is the trained predictor the cluster router simulates
	// arriving jobs on (slice + full design). It may be nil for
	// replay-only serving, where every job carries a Trace.
	Pred *core.Predictor
	// Device, Power and SlicePower are the DVFS profile and energy
	// models, as in sim.Config.
	Device     *dvfs.Device
	Power      power.Model
	SlicePower power.Model
	// Deadline is each job's response-time requirement measured from
	// its arrival, in seconds.
	Deadline float64
	// Margin is the predictive controller's safety-margin fraction.
	Margin float64
	// AllowBoost permits the device's boost point under budget pressure.
	AllowBoost bool
}

// Stepper builds the profile's governor: a predictive-controller
// sim.Stepper carrying the device level between jobs. Every Replica
// owns one, and so does the online trainer's shadow replay. It fails
// on a profile without a valid device or with a non-positive deadline.
func (p Profile) Stepper() (*sim.Stepper, error) {
	return sim.NewStepper(sim.Config{
		Device:     p.Device,
		Power:      p.Power,
		SlicePower: p.SlicePower,
		Deadline:   p.Deadline,
		Controller: control.NewPredictive(p.Margin, p.AllowBoost),
	})
}

// NewJobSimulator returns a private simulator clone pair for the
// profile's predictor, or nil for a replay-only profile.
func (p Profile) NewJobSimulator() *core.JobSimulator {
	if p.Pred == nil {
		return nil
	}
	return p.Pred.NewJobSimulator()
}
