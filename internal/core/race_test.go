//go:build race

package core_test

// raceEnabled: the race detector instruments allocations, so counts and
// ceilings measured without it do not hold under it.
const raceEnabled = true
