//go:build !race

package huffman

const raceEnabled = false
