//go:build !race

package mlmodel_test

const raceEnabled = false
