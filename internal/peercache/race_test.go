//go:build race

package peercache

// raceEnabled: the race detector instruments allocations, so counts measured
// under it say nothing about the production build.
const raceEnabled = true
