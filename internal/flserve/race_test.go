//go:build race

package flserve

// raceEnabled reports that this test binary runs under the race detector,
// whose sync.Pool deliberately drops a random ~25% of Puts.
const raceEnabled = true
