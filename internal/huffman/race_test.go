//go:build race

package huffman

// raceEnabled reports that this test binary runs under the race detector,
// whose sync.Pool deliberately drops a random ~25% of Puts — allocation
// assertions are meaningless there.
const raceEnabled = true
