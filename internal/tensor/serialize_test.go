package tensor

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/sched"
)

// spliced joins the entries of several marshalled dicts under one header,
// which is how a buffer with a repeated name (which StateDict.Add refuses to
// build) is made.
func spliced(dicts ...*StateDict) []byte {
	out := binary.LittleEndian.AppendUint32(nil, stateDictMagic)
	out = binary.LittleEndian.AppendUint32(out, 0)
	count := 0
	for _, sd := range dicts {
		out = append(out, sd.Marshal()[8:]...)
		count += sd.Len()
	}
	binary.LittleEndian.PutUint32(out[4:], uint32(count))
	return out
}

// TestUnmarshalErrorsReturnFloats: every malformed buffer is refused with an
// error wrapping ErrBadFormat, and every float buffer the attempt took from
// the pool goes back — a duplicate name after decoded entries, each
// truncation of a buffer that holds one, and each truncation of a clean one.
func TestUnmarshalErrorsReturnFloats(t *testing.T) {
	first := NewStateDict()
	first.Add("a", KindWeight, FromData([]float32{1, 2, 3}, 3))
	first.Add("b", KindBias, FromData([]float32{4, 5}, 2))
	second := NewStateDict()
	second.Add("a", KindRunningStat, FromData([]float32{6}, 1))
	second.Add("c", KindWeight, FromData([]float32{7, 8, 9, 10}, 2, 2))
	dup := spliced(first, second)
	clean := spliced(first, makeDict())

	check := func(what string, buf []byte) {
		t.Helper()
		hits0, misses0 := sched.FloatPoolCounters()
		puts0 := sched.FloatPoolPuts()
		sd, err := UnmarshalStateDict(buf)
		hits1, misses1 := sched.FloatPoolCounters()
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%s: got %v (dict %v), want ErrBadFormat", what, err, sd)
		}
		if took, put := (hits1+misses1)-(hits0+misses0), sched.FloatPoolPuts()-puts0; took != put {
			t.Fatalf("%s: took %d float buffers and returned %d", what, took, put)
		}
	}
	check("duplicate name", dup)
	for cut := 0; cut < len(dup); cut++ {
		check("duplicate name, cut", dup[:cut])
	}
	for cut := 0; cut < len(clean); cut++ {
		check("clean, cut", clean[:cut])
	}
	if sd, err := UnmarshalStateDict(clean); err != nil || sd.Len() != first.Len()+makeDict().Len() {
		t.Fatalf("uncut buffer: %v", err)
	}
}

// TestUnmarshalHostileShape: dimensions whose product overflows are refused
// rather than multiplied around to a count the buffer seems to hold, while a
// zero dimension still makes an empty tensor whatever the others declare.
func TestUnmarshalHostileShape(t *testing.T) {
	entry := func(dims ...uint32) []byte {
		out := binary.LittleEndian.AppendUint32(nil, stateDictMagic)
		out = binary.LittleEndian.AppendUint32(out, 1)
		out = append(out, 1, 0, 'w', byte(KindWeight), byte(len(dims)))
		for _, d := range dims {
			out = binary.LittleEndian.AppendUint32(out, d)
		}
		return out
	}
	for _, dims := range [][]uint32{
		{1 << 31, 1 << 31}, // 2^62 elements: 4·n wraps to 0 bytes
		{1 << 31, 1 << 31, 4},
		{0xffffffff, 0xffffffff, 0xffffffff},
		{3},
	} {
		if _, err := UnmarshalStateDict(entry(dims...)); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("dims %v: got %v, want ErrBadFormat", dims, err)
		}
	}
	sd, err := UnmarshalStateDict(entry(0xffffffff, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := sd.Get("w"); got.NumElems() != 0 || len(got.Shape) != 2 {
		t.Fatalf("zero-dimension tensor decoded as shape %v with %d elements", got.Shape, got.NumElems())
	}
}
