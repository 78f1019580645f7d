package main

import (
	"testing"

	"repro/internal/tensor"
)

// toyInputs generates every input kind at a size a test can afford.
func toyInputs(seed uint64) map[string]string {
	tr := genTrajectory(seed, mobilenetEven(20_000))
	return map[string]string{
		"alexnet_skew":   inputHash(genClients(seed, alexnetSkew(40_000), 2)...),
		"mobilenet_even": inputHash(genClients(seed, mobilenetEven(20_000), 2)...),
		"tiny_even":      inputHash(genClients(seed, tinyEven(3_000), 2)...),
		"trajectory":     inputHash(append([]*tensor.StateDict{tr.g0, tr.drift}, tr.noise...)...),
	}
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	a, again, b := toyInputs(1), toyInputs(1), toyInputs(2)
	for kind, h := range a {
		if again[kind] != h {
			t.Errorf("%s: seed 1 hashed to %s then %s", kind, h, again[kind])
		}
		if b[kind] == h {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", kind)
		}
	}
	// Pinned across processes and releases: a change here changes what the
	// benchmark measures, and every earlier number with it.
	const want = "778fe315bf9c88f962173a7f4628cc2a87a12cb2a8653b5260e25ad48cb4e889"
	if got := a["tiny_even"]; got != want {
		t.Errorf("tiny_even seed 1 hashed to %s, want %s", got, want)
	}
}

func TestAlexnetSkewChunks(t *testing.T) {
	spec := alexnetSkew(2_400_000)
	big := 0
	for _, n := range spec.layers {
		if n > 512<<10 {
			big++
		}
	}
	if big != 2 {
		t.Errorf("alexnet_skew at full size has %d tensors above the 512 Ki chunk threshold, want fc6 and fc7: %v", big, spec.layers)
	}
}

func TestTrajectoryUpdatesFollowTheGlobal(t *testing.T) {
	tr := genTrajectory(1, mobilenetEven(40_000))
	g3 := tr.globalInto(nil, 3)
	if g := tr.globalInto(nil, 3+trajectoryPeriod); inputHash(g) != inputHash(g3) {
		t.Error("trajectory does not repeat after trajectoryPeriod rounds")
	}
	if inputHash(tr.globalInto(nil, 4)) == inputHash(g3) {
		t.Error("consecutive globals are identical")
	}
	u0, u1 := tr.updateInto(nil, g3, 0, 3), tr.updateInto(nil, g3, 1, 3)
	if inputHash(u0) == inputHash(u1) {
		t.Error("two clients produced the same update")
	}
	for i, e := range u0.Entries() {
		if e.Kind != tensor.KindWeight {
			continue
		}
		g := g3.Entries()[i].Tensor.Data
		want := g[0]
		if diverged(i) {
			want = -g[0]
		}
		if d := e.Tensor.Data[0] - want; d > 0.02 || d < -0.02 {
			t.Errorf("entry %d (%s): update %.4f is not within the noise of %.4f", i, e.Name, e.Tensor.Data[0], want)
		}
	}
}
