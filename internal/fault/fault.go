// Package fault is a deterministic, seeded fault-injection layer for
// the repository's stateful subsystems: the crash-safe file writer
// (failed writes and commits), the online serving routers (stalled
// predictor attempts), and the offline training/collection fan-out
// (failed worker jobs).
//
// Every injection decision is a pure function of (seed, site, key,
// attempt): a 64-bit FNV-1a hash over the identifiers is compared
// against the site's configured rate. No call order, wall clock, or
// shared RNG state is involved, so a fault schedule replays
// bit-identically under any concurrency and any interleaving — the
// property the chaos soak test asserts when it runs the same seed twice
// and requires identical serving statistics.
//
// Sites model transient faults by default: the rate applies to a job's
// first attempt, and each retry multiplies it by the site's repeat
// factor (0 = the fault never recurs, 1 = the retry draws independently
// at the full rate). This is what makes bounded-retry recovery paths
// testable: rate 1 with repeat 0 faults every first attempt and lets
// every retry succeed.
//
// Injection site names are declared by the consuming packages
// (atomicfile.FaultWrite, serve.FaultStall, core.FaultJob, ...) so the
// spec strings operators pass to -faults stay greppable next to the
// code they perturb.
package fault

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// site is one registered injection point's configuration and counter.
type site struct {
	rate   float64 // injection probability at attempt 0, in [0, 1]
	repeat float64 // rate multiplier per retry attempt, in [0, 1]
	count  atomic.Uint64
}

// Injector decides, deterministically in its seed, which operations
// fault. The zero of sites is "never inject": a nil *Injector is a
// valid receiver for every query method and injects nothing, so
// consumers need no nil checks on their hot paths.
//
// Configure sites (Site, SiteRepeat, Parse) before handing the injector
// to concurrent users; queries are safe for concurrent use, site
// registration is not.
type Injector struct {
	seed  int64
	sites map[string]*site
}

// New returns an injector with no sites registered.
func New(seed int64) *Injector {
	return &Injector{seed: seed, sites: make(map[string]*site)}
}

// Seed returns the schedule seed.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Site registers a transient fault: rate applies to attempt 0 and
// retries never re-fault. Rates are clamped to [0, 1]. Returns the
// injector for chaining.
func (in *Injector) Site(name string, rate float64) *Injector {
	return in.SiteRepeat(name, rate, 0)
}

// SiteRepeat registers a fault with an explicit retry behavior: attempt
// k draws at rate·repeatᵏ. repeat 0 is transient, repeat 1 is
// persistent (every attempt draws independently at the full rate).
func (in *Injector) SiteRepeat(name string, rate, repeat float64) *Injector {
	in.sites[name] = &site{rate: clamp01(rate), repeat: clamp01(repeat)}
	return in
}

func clamp01(v float64) float64 {
	switch {
	case v != v || v < 0: // NaN or negative
		return 0
	case v > 1:
		return 1
	}
	return v
}

// Parse builds an injector from a comma-separated spec of
// "site=rate" or "site=rate*repeat" entries, e.g.
//
//	core.job=0.1,serve.stall=0.05*0.5
//
// An empty spec yields an injector with no sites.
func Parse(seed int64, spec string) (*Injector, error) {
	in := New(seed)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("fault: bad spec entry %q (want site=rate[*repeat])", entry)
		}
		rateStr, repeatStr, hasRepeat := strings.Cut(val, "*")
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: bad rate in %q: %w", entry, err)
		}
		repeat := 0.0
		if hasRepeat {
			if repeat, err = strconv.ParseFloat(repeatStr, 64); err != nil {
				return nil, fmt.Errorf("fault: bad repeat in %q: %w", entry, err)
			}
		}
		in.SiteRepeat(strings.TrimSpace(name), rate, repeat)
	}
	return in, nil
}

// two64 is 2^64 as a float64, the denominator turning a 64-bit hash
// into a uniform draw in [0, 1).
const two64 = 1 << 63 * 2.0

// decide is the pure decision function: hash(seed, site, key, attempt)
// compared against the attempt-scaled rate.
func decide(seed int64, name, key string, attempt int, rate, repeat float64) bool {
	p := rate
	for i := 0; i < attempt; i++ {
		p *= repeat
	}
	if p <= 0 {
		return false
	}
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(key))
	h.Write([]byte{0})
	binary.LittleEndian.PutUint64(b[:], uint64(attempt))
	h.Write(b[:])
	return float64(h.Sum64())/two64 < p
}

// Hit reports whether the fault at the named site fires for key's first
// attempt, counting the injection. Unregistered sites never fire.
func (in *Injector) Hit(name, key string) bool { return in.HitN(name, key, 0) }

// HitN is Hit for retry attempt `attempt` (0 = first try), counting the
// injection when it fires.
func (in *Injector) HitN(name, key string, attempt int) bool {
	if !in.CheckN(name, key, attempt) {
		return false
	}
	in.sites[name].count.Add(1)
	return true
}

// CheckN answers the same question as HitN without counting — for
// callers that need to re-derive an earlier decision (e.g. attributing
// a timed-out attempt to the schedule) without double-counting it.
func (in *Injector) CheckN(name, key string, attempt int) bool {
	if in == nil {
		return false
	}
	s := in.sites[name]
	if s == nil {
		return false
	}
	return decide(in.seed, name, key, attempt, s.rate, s.repeat)
}

// Err returns an *Error when the site fires for key (attempt 0), else
// nil.
func (in *Injector) Err(name, key string) error { return in.ErrN(name, key, 0) }

// ErrN is Err for a specific retry attempt.
func (in *Injector) ErrN(name, key string, attempt int) error {
	if !in.HitN(name, key, attempt) {
		return nil
	}
	return &Error{Site: name, Key: key, Attempt: attempt}
}

// Counts returns the number of injections fired per site (sites that
// never fired report 0).
func (in *Injector) Counts() map[string]uint64 {
	out := make(map[string]uint64)
	if in == nil {
		return out
	}
	for name, s := range in.sites { //detlint:allow snapshot map, callers sort
		out[name] = s.count.Load()
	}
	return out
}

// Total returns the number of injections fired across all sites.
func (in *Injector) Total() uint64 {
	var n uint64
	if in == nil {
		return 0
	}
	for _, s := range in.sites { //detlint:allow order-independent sum
		n += s.count.Load()
	}
	return n
}

// String renders the schedule and its hit counts, sites sorted by name.
func (in *Injector) String() string {
	if in == nil {
		return "fault: disabled"
	}
	names := make([]string, 0, len(in.sites))
	for name := range in.sites { //detlint:allow sorted immediately below
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "fault: seed=%d", in.seed)
	for _, name := range names {
		s := in.sites[name]
		fmt.Fprintf(&sb, " %s=%g*%g(%d)", name, s.rate, s.repeat, s.count.Load())
	}
	return sb.String()
}

// Error marks an injected failure. Consumers that must distinguish
// injected faults from organic ones (metrics attribution, tests) unwrap
// with Injected or errors.As.
type Error struct {
	// Site is the injection point that fired.
	Site string
	// Key identifies the operation within the site.
	Key string
	// Attempt is the retry attempt the fault fired on (0 = first try).
	Attempt int
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected failure at %s (key %q, attempt %d)", e.Site, e.Key, e.Attempt)
}

// Injected reports whether err is, or wraps, an injected fault.
func Injected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}
