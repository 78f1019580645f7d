//go:build !race

package flserve

const raceEnabled = false
