//go:build race

package conformance

// raceEnabled reports that this test binary runs under the race detector,
// whose sync.Pool deliberately drops a random ~25% of Puts — allocation
// counts over pooled scratch are meaningless there.
const raceEnabled = true
