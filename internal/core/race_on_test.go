//go:build race

package core

// raceEnabled reports a -race build, where exhaustive differential
// tests subsample: the race legs check concurrency, and the plain test
// run keeps the full sweep.
const raceEnabled = true
