package fedsz

// DeltaCodec: the session-oriented cross-round delta API, layered on Codec.
// It owns the retained reference state dict and its epoch, compresses
// round-t updates as residuals against the round-(t−1) baseline (the v3
// stream format: one 13-byte constant per residual that fits the bound
// around one value, else a codec blob, with per-tensor fallback to absolute
// whenever a residual doesn't win), and decodes them back against the same
// baseline.

import (
	"context"

	"repro/internal/delta"
	"repro/internal/tensor"
)

// DeltaCodec is a cross-round delta session layered on a Codec. Compress
// and Decompress may be called concurrently with each other but not with
// SetReference — advance the reference at round boundaries, as
// fl.RunRound does.
type DeltaCodec struct {
	base *Codec
	ref  delta.Ref
}

// NewDelta layers cross-round delta compression on an existing Codec.
// Before the first SetReference every Compress emits a plain absolute
// stream — a fresh session is wire-compatible with non-delta receivers by
// construction.
func NewDelta(base *Codec) *DeltaCodec { return &DeltaCodec{base: base} }

// SetReference retains a deep copy of sd as the baseline for subsequent
// Compress/Decompress calls and returns the new epoch — call it with the
// broadcast global state at the top of each round. The copy reuses the
// previous reference's storage when shapes match, so steady-state rounds
// allocate nothing.
func (c *DeltaCodec) SetReference(sd *StateDict) uint32 { return c.ref.Set(sd) }

// RefProvider returns the epoch-checked reference lookup an flserve server
// consumes (Config.RefProvider), so uploads compressed by this session
// reconstruct against its exact baseline.
func (c *DeltaCodec) RefProvider() func(epoch uint32) *tensor.StateDict {
	return c.ref.Provider()
}

// Compress encodes sd against the retained reference (absolute stream
// before the first SetReference). Stats.DeltaTensors counts the residual
// sections, Stats.ConstantResiduals those of them sent as one constant, and
// Stats.DeltaBytesSaved what the codec-encoded ones won (an estimate for
// tensors above 32 Ki elements: their absolute candidate is only sampled).
func (c *DeltaCodec) Compress(ctx context.Context, sd *StateDict) ([]byte, *Stats, error) {
	ref, epoch, ok := c.ref.Get()
	if !ok {
		return c.base.Compress(ctx, sd)
	}
	return c.base.CompressDelta(ctx, sd, ref, epoch)
}

// Decompress reverses Compress against the retained reference. Residual
// streams from a different epoch — or arriving before any SetReference —
// fail with an error wrapping core.ErrReference, the signal to renegotiate
// an absolute exchange rather than treat the stream as corrupt.
func (c *DeltaCodec) Decompress(ctx context.Context, stream []byte) (*StateDict, *DecompressStats, error) {
	ref, epoch, _ := c.ref.Get()
	return c.base.DecompressDelta(ctx, stream, ref, epoch)
}
