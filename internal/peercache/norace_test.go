//go:build !race

package peercache

const raceEnabled = false
