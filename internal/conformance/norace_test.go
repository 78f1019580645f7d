//go:build !race

package conformance

const raceEnabled = false
