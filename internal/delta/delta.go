// Package delta implements cross-round delta compression for federated
// learning: round-t model updates are temporally correlated with the
// previous global model, which both ends of the wire already hold, so
// encoding the residual update − reference under the same error bound
// shrinks bytes-per-round — the paper's core cost metric — without touching
// the error contract (the reference is bit-identical at both ends, so the
// reconstruction error on the original data is exactly the residual's
// encoding error).
//
// The package provides Ref, the retained-reference holder for ends that do
// not share memory: fedsz.DeltaCodec layers it over a fedsz.Codec, and
// servers consume it via Provider (flserve.Config.RefProvider). fl's
// delta rounds need none — RunRound passes the round's broadcast state to
// both ends directly.
package delta

import (
	"sync"

	"repro/internal/tensor"
)

// Ref holds a retained cross-round reference: a deep copy of the last
// broadcast global state plus a monotonically increasing epoch that both
// ends use to verify they agree on the baseline. Set is called at round
// boundaries (it reuses the previous copy's pooled storage when shapes
// match); Get may be called concurrently with other Gets, but not with a
// Set — holders advance the reference only between rounds.
type Ref struct {
	mu    sync.Mutex
	sd    *tensor.StateDict
	epoch uint32
}

// Set retains a deep copy of sd as the new reference and returns the new
// epoch. The copy lands in the previous reference's storage when
// structurally compatible, so steady-state rounds allocate nothing.
func (r *Ref) Set(sd *tensor.StateDict) uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sd = sd.CloneInto(r.sd)
	r.epoch++
	return r.epoch
}

// Get returns the retained reference and its epoch; ok is false before the
// first Set. The returned dict is shared — read-only for the caller.
func (r *Ref) Get() (*tensor.StateDict, uint32, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sd, r.epoch, r.sd != nil
}

// Provider adapts the holder to flserve.Config.RefProvider: it returns the
// retained dict only for the exact epoch currently held, so a client that
// negotiated a stale epoch is steered to absolute uploads.
func (r *Ref) Provider() func(epoch uint32) *tensor.StateDict {
	return func(epoch uint32) *tensor.StateDict {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.sd != nil && epoch == r.epoch {
			return r.sd
		}
		return nil
	}
}
