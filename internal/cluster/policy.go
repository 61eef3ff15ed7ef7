package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/serve"
)

// Candidate is one placement-eligible replica's exact view of a job:
// the step the replica's twin plans for it (serve.Replica.Plan) plus
// the router's own view.
type Candidate struct {
	// ID and Name identify the replica (IDs are stable and unique for
	// the pool's lifetime; candidates arrive in ascending ID order).
	ID   int
	Name string
	// Step is the replica's step for the job: Start, Wait, Budget,
	// Finish, the degrade Trigger, and the Result its shard will produce
	// (level, energy, miss, total time).
	serve.Step
	// Backlog counts placed jobs still unfinished (in virtual time) at
	// the arrival.
	Backlog int
	// Feasible: the step meets the deadline and the backlog bound.
	// FreshFeasible: the job would meet a full deadline from an empty
	// queue — false on every candidate means the job is intrinsically
	// infeasible, not a victim of fleet load. The router fills
	// FreshFeasible only when no candidate is Feasible (the one case a
	// policy needs it); otherwise it is false on every candidate.
	Feasible, FreshFeasible bool
}

// Policy picks a replica for a job. Pick returns an index into cands,
// or -1 to shed. cands is non-empty and sorted by ascending replica ID;
// key is the job's routing key. Implementations must be deterministic
// pure functions of their arguments.
type Policy interface {
	Name() string
	Pick(cands []Candidate, key string) int
}

// ParsePolicy maps the flag spellings "predict", "pressure" and "hash".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "predict", "":
		return PolicyPredict{}, nil
	case "pressure":
		return PolicyPressure{}, nil
	case "hash":
		return PolicyHash{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown routing policy %q (want predict, pressure or hash)", s)
}

// keylessPolicy is implemented by the built-in policies whose Pick never
// reads the routing key, so the router can skip formatting a default
// one. Pick receives an empty key under such a policy.
type keylessPolicy interface{ keyless() }

// PolicyPredict is predict-then-place, the paper's predictor driving
// placement: admit the job to the replica that still meets the deadline
// at the lowest projected energy; ties break on earlier finish, then
// lower replica ID. When no replica is feasible, a job that would miss
// even a fresh deadline everywhere (intrinsically infeasible) is placed
// on the earliest-starting replica — its miss belongs to the job, and
// offline replay serves such jobs too — while a job that only today's
// backlog makes infeasible is shed.
type PolicyPredict struct{}

// Name implements Policy.
func (PolicyPredict) Name() string { return "predict" }

func (PolicyPredict) keyless() {}

// Pick implements Policy.
func (PolicyPredict) Pick(cands []Candidate, key string) int {
	best := -1
	for i := range cands {
		c := &cands[i]
		if !c.Feasible {
			continue
		}
		if best < 0 || less3(c.Result.Energy, c.Finish, float64(c.ID),
			cands[best].Result.Energy, cands[best].Finish, float64(cands[best].ID)) {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	for _, c := range cands {
		if c.FreshFeasible {
			return -1 // only the current backlog blocks this job: shed
		}
	}
	return minStart(cands) // intrinsically infeasible: place, serve, count the miss
}

// less3 is a three-key lexicographic comparison.
func less3(a1, a2, a3, b1, b2, b3 float64) bool {
	if a1 != b1 {
		return a1 < b1
	}
	if a2 != b2 {
		return a2 < b2
	}
	return a3 < b3
}

// PolicyPressure is least-budget-pressure routing: place on the replica
// whose queue eats the least of the job's deadline (minimum projected
// wait; ties break on smaller backlog, then lower ID). It ignores
// energy and feasibility — classic load balancing — shedding only when
// every replica's backlog bound is saturated.
type PolicyPressure struct{}

// Name implements Policy.
func (PolicyPressure) Name() string { return "pressure" }

func (PolicyPressure) keyless() {}

// Pick implements Policy.
func (PolicyPressure) Pick(cands []Candidate, key string) int {
	best := -1
	for i := range cands {
		c := &cands[i]
		if best < 0 || less3(c.Wait, float64(c.Backlog), float64(c.ID),
			cands[best].Wait, float64(cands[best].Backlog), float64(cands[best].ID)) {
			best = i
		}
	}
	return best
}

// PolicyHash is consistent-hash affinity routing: the job's key hashes
// onto a ring of virtual nodes (hashVnodes per replica), and the job
// goes to the replica owning the next point clockwise. Adding or
// removing a replica remaps only the keys whose owning arc changed —
// the stability property the router tests pin down. Feasibility is
// ignored: affinity callers trade deadline awareness for placement
// stickiness.
//
// Pick builds the ring afresh; a pool picks through its own hashRing,
// which rebuilds only when the candidate names change.
type PolicyHash struct{}

const hashVnodes = 32

// Name implements Policy.
func (PolicyHash) Name() string { return "hash" }

// Pick implements Policy.
func (PolicyHash) Pick(cands []Candidate, key string) int {
	var r hashRing
	return r.Pick(cands, key)
}

// hashRing is PolicyHash with its sorted ring cached for the candidate
// names it was built from, in order.
type hashRing struct {
	names  []string
	points []ringPoint
}

type ringPoint struct {
	h   uint64
	idx int
}

// Name implements Policy.
func (r *hashRing) Name() string { return "hash" }

// Pick implements Policy.
func (r *hashRing) Pick(cands []Candidate, key string) int {
	if !r.builtFor(cands) {
		r.build(cands)
	}
	h := fnv1a(fnvOffset, key)
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.points[mid].h < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0 // wrap around the ring
	}
	return r.points[lo].idx
}

func (r *hashRing) builtFor(cands []Candidate) bool {
	if len(r.names) != len(cands) {
		return false
	}
	for i, c := range cands {
		if r.names[i] != c.Name {
			return false
		}
	}
	return true
}

// build hashes hashVnodes points per candidate, each the FNV-1a hash of
// "<name>#<vnode>", and sorts them by hash, then candidate index.
func (r *hashRing) build(cands []Candidate) {
	r.names, r.points = r.names[:0], r.points[:0]
	for i, c := range cands {
		r.names = append(r.names, c.Name)
		h := fnv1a(fnvOffset, c.Name)
		h = fnv1a(h, "#")
		for v := 0; v < hashVnodes; v++ {
			r.points = append(r.points, ringPoint{fnv1a(h, strconv.Itoa(v)), i})
		}
	}
	slices.SortFunc(r.points, func(a, b ringPoint) int {
		if c := cmp.Compare(a.h, b.h); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
}

// 64-bit FNV-1a, as hash/fnv's New64a.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a continues an FNV-1a hash h over the bytes of s.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}
