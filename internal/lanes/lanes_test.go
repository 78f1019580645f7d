package lanes

import "testing"

// TestBothPaths checks the switch BothPaths flips: the kernels' call (when
// this CPU has them) sees On, the Go loops' call does not, and On is back
// afterwards, also when a call leaves by a panic.
func TestBothPaths(t *testing.T) {
	was := On()
	var paths []string
	BothPaths(func(path string) {
		if On() != (path == "kernels") {
			t.Fatalf("On() is %v on the %s path", On(), path)
		}
		paths = append(paths, path)
	})
	if want := map[bool]int{true: 2, false: 1}[was]; len(paths) != want || paths[len(paths)-1] != "Go" {
		t.Fatalf("paths %v, want %d ending in Go", paths, want)
	}
	func() {
		defer func() { recover() }()
		BothPaths(func(path string) {
			if path == "Go" {
				panic("check failed")
			}
		})
	}()
	if On() != was {
		t.Fatalf("On() is %v after BothPaths, was %v", On(), was)
	}
}
