// Package netsim models the constrained networks of the FedSZ evaluation.
// The paper emulates low bandwidth by sleeping inside MPI sends (§VI-C);
// this package instead computes transmission times analytically on a
// virtual clock from real measured payload sizes, which makes hour-long
// "transfers" cost nothing and keeps the scaling experiments deterministic.
package netsim

import (
	"fmt"
	"io"
	"time"
)

// Link models a client↔server path.
type Link struct {
	// BandwidthMbps is the usable throughput in megabits per second.
	BandwidthMbps float64
}

// EdgeLink is the 10 Mbps wide-area edge network of Figures 7 and 9.
var EdgeLink = Link{BandwidthMbps: 10}

// TransmitTime returns the virtual wall-clock time to move `bytes` across
// the link, counting bits in float64 so that no int width can overflow.
func (l Link) TransmitTime(bytes int) time.Duration {
	if l.BandwidthMbps <= 0 {
		panic(fmt.Sprintf("netsim: non-positive bandwidth %g", l.BandwidthMbps))
	}
	seconds := float64(bytes) * 8 / (l.BandwidthMbps * 1e6)
	return time.Duration(seconds * float64(time.Second))
}

// ThrottleWriter wraps w so sustained throughput approximates the link's
// bandwidth. Where the rest of this package accounts transfer time
// analytically on a virtual clock, a throttled writer spends real
// wall-clock time — it is the bridge between the analytic model and the
// streaming transport (internal/wire, internal/flserve): wrapping a
// client's socket in one emulates the paper's constrained uplinks on a real
// connection, so decode-under-receive overlap can be measured end-to-end
// instead of modeled.
func (l Link) ThrottleWriter(w io.Writer) io.Writer {
	if l.BandwidthMbps <= 0 {
		panic(fmt.Sprintf("netsim: non-positive bandwidth %g", l.BandwidthMbps))
	}
	return &throttledWriter{w: w, link: l}
}

// throttleChunk keeps individual sleeps short so pacing is smooth rather
// than bursty (16 KiB at 10 Mbps ≈ 13 ms per chunk).
const throttleChunk = 16 << 10

type throttledWriter struct {
	w    io.Writer
	link Link
	// next is the virtual send clock: the real time before which the next
	// chunk must not complete.
	next time.Time
}

func (t *throttledWriter) Write(p []byte) (int, error) {
	if t.next.IsZero() {
		t.next = time.Now()
	}
	written := 0
	for written < len(p) {
		chunk := min(len(p)-written, throttleChunk)
		// Charge the chunk's transmission time on the virtual clock, then
		// sleep until the clock catches up. Accumulating on `next` (rather
		// than sleeping per chunk) keeps long-run throughput exact even
		// though individual sleeps overshoot.
		t.next = t.next.Add(t.link.TransmitTime(chunk))
		if d := time.Until(t.next); d > 0 {
			time.Sleep(d)
		}
		n, err := t.w.Write(p[written : written+chunk])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Decision is the outcome of the Eqn-1 test.
type Decision struct {
	Compress         bool
	CompressedTime   time.Duration // tC + tD + S'/B
	UncompressedTime time.Duration // S/B
}

// Speedup returns uncompressed/compressed total time.
func (d Decision) Speedup() float64 {
	if d.CompressedTime == 0 {
		return 0
	}
	return float64(d.UncompressedTime) / float64(d.CompressedTime)
}

// ShouldCompress evaluates the paper's Equation 1: compression pays off when
// tC + tD + S'/B < S/B.
func ShouldCompress(tC, tD time.Duration, rawBytes, compressedBytes int, link Link) Decision {
	comp := tC + tD + link.TransmitTime(compressedBytes)
	raw := link.TransmitTime(rawBytes)
	return Decision{Compress: comp < raw, CompressedTime: comp, UncompressedTime: raw}
}

// ClientProfile describes one client's per-round costs for the scaling
// simulator: real compute durations plus the bytes it uploads.
type ClientProfile struct {
	ComputeTime  time.Duration // local training (+ validation share)
	CompressTime time.Duration // zero for uncompressed transports
	UploadBytes  int
}

// ScalingPoint is one measurement of Figure 9.
type ScalingPoint struct {
	Workers   int
	Clients   int
	RoundTime time.Duration // virtual wall clock for one communication round
}

// SimulateRound computes the virtual round time for `clients` identical
// clients scheduled over `workers` parallel slots, all uploading through
// one shared server link (the serialized ingest is what makes communication
// dominate at scale, as in the paper's 10 Mbps runs).
func SimulateRound(profile ClientProfile, clients, workers int, link Link) ScalingPoint {
	if workers < 1 || clients < 1 {
		panic("netsim: need at least one worker and client")
	}
	waves := (clients + workers - 1) / workers
	compute := time.Duration(waves) * (profile.ComputeTime + profile.CompressTime)
	// The server drains uploads serially over the shared link.
	comm := time.Duration(clients) * link.TransmitTime(profile.UploadBytes)
	return ScalingPoint{Workers: workers, Clients: clients, RoundTime: compute + comm}
}

// WeakScaling runs the paper's weak-scaling sweep: one client per worker,
// worker counts as given (Fig. 9a reports per-client epoch time).
func WeakScaling(profile ClientProfile, workerCounts []int, link Link) []ScalingPoint {
	out := make([]ScalingPoint, 0, len(workerCounts))
	for _, w := range workerCounts {
		out = append(out, SimulateRound(profile, w, w, link))
	}
	return out
}

// StrongScaling runs the fixed-client sweep (127 clients in the paper).
func StrongScaling(profile ClientProfile, clients int, workerCounts []int, link Link) []ScalingPoint {
	out := make([]ScalingPoint, 0, len(workerCounts))
	for _, w := range workerCounts {
		out = append(out, SimulateRound(profile, clients, w, link))
	}
	return out
}
