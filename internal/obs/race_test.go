//go:build race

package obs

// raceEnabled: the race detector instruments allocations, so counts and
// ceilings measured without it do not hold under it.
const raceEnabled = true
