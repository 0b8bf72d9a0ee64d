//go:build race

package mlmodel_test

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// Put, so a pooled buffer is not allocation-free there.
const raceEnabled = true
