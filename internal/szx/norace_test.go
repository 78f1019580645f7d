//go:build !race

package szx_test

const raceEnabled = false
