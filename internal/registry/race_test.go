//go:build race

package registry_test

// raceEnabled: the race detector changes what a call allocates, so the
// allocation ceilings skip under it.
const raceEnabled = true
