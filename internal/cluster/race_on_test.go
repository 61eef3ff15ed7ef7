//go:build race

package cluster

// raceEnabled reports a -race build, whose instrumentation allocates, so
// allocation counts are not meaningful there.
const raceEnabled = true
