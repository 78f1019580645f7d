package netsim

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func TestTransmitTime(t *testing.T) {
	l := Link{BandwidthMbps: 10}
	// 10 Mbps = 1.25 MB/s: 1.25 MB should take 1 s.
	got := l.TransmitTime(1_250_000)
	if math.Abs(got.Seconds()-1) > 1e-9 {
		t.Fatalf("TransmitTime = %v want 1s", got)
	}
}

// TestTransmitTimeLargeUpdate: an update of 256 MiB or more must not wrap
// where int is 32 bits (CI's GOARCH=386 leg), and Eqn 1 on it must still
// say compress. Multiplying in int once gave 0s for 2^29 bytes at
// 1,000 Mbps and a negative time for 300 MiB there.
func TestTransmitTimeLargeUpdate(t *testing.T) {
	l := Link{BandwidthMbps: 1000}
	if got := l.TransmitTime(1 << 29); got != 4294967296*time.Nanosecond {
		t.Fatalf("TransmitTime(2^29 B) at 1,000 Mbps = %v, want 4.294967296s", got)
	}
	if got := l.TransmitTime(300 << 20); got <= 0 {
		t.Fatalf("TransmitTime(300 MiB) at 1,000 Mbps = %v, want positive", got)
	}
	d := ShouldCompress(time.Second, 500*time.Millisecond, 512<<20, 64<<20, l)
	if !d.Compress {
		t.Fatalf("512 MiB → 64 MiB at 1,000 Mbps: %+v, want compress", d)
	}
}

func TestTransmitTimePanicsOnBadBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Link{}.TransmitTime(10)
}

func TestEqn1Decision(t *testing.T) {
	// Paper example scale: 230 MB AlexNet at 10 Mbps takes ~184 s raw; with
	// 12x compression and ~4 s codec time, compression must win.
	raw := 230 << 20
	comp := raw / 12
	d := ShouldCompress(3*time.Second, 1*time.Second, raw, comp, Link{BandwidthMbps: 10})
	if !d.Compress {
		t.Fatal("compression should win at 10 Mbps")
	}
	if d.Speedup() < 5 {
		t.Fatalf("speedup %.2f, want > 5 at 10 Mbps", d.Speedup())
	}
	// At 10 Gbps the raw transfer takes ~0.18 s; codec time dominates and
	// compression must lose (the paper's ~500 Mbps crossover).
	d = ShouldCompress(3*time.Second, 1*time.Second, raw, comp, Link{BandwidthMbps: 10_000})
	if d.Compress {
		t.Fatal("compression should lose at 10 Gbps")
	}
}

func TestCrossoverMonotonic(t *testing.T) {
	// As bandwidth grows, the compress/don't-compress decision flips
	// exactly once.
	raw := 100 << 20
	comp := raw / 10
	prev := true
	flips := 0
	for _, mbps := range []float64{1, 10, 50, 100, 500, 1000, 5000, 10000} {
		d := ShouldCompress(time.Second, 500*time.Millisecond, raw, comp, Link{BandwidthMbps: mbps})
		if d.Compress != prev {
			flips++
			prev = d.Compress
		}
	}
	if flips != 1 {
		t.Fatalf("decision flipped %d times, want exactly 1", flips)
	}
}

func TestWeakScalingGrowsWithClients(t *testing.T) {
	profile := ClientProfile{ComputeTime: 2 * time.Second, UploadBytes: 1 << 20}
	points := WeakScaling(profile, []int{2, 4, 8, 16}, EdgeLink)
	if len(points) != 4 {
		t.Fatal("want 4 points")
	}
	for i := 1; i < len(points); i++ {
		if points[i].RoundTime <= points[i-1].RoundTime {
			t.Fatalf("weak scaling must grow: %v then %v", points[i-1], points[i])
		}
	}
	// At 10 Mbps the shared-link comm term dominates: doubling clients
	// should roughly double round time at the high end.
	r := float64(points[3].RoundTime) / float64(points[2].RoundTime)
	if r < 1.5 || r > 2.5 {
		t.Fatalf("weak-scaling growth factor %.2f, want ~2", r)
	}
}

func TestStrongScalingSpeedsUp(t *testing.T) {
	profile := ClientProfile{ComputeTime: 2 * time.Second, CompressTime: 100 * time.Millisecond, UploadBytes: 1 << 18}
	points := StrongScaling(profile, 127, []int{2, 4, 8, 16, 32, 64, 128}, EdgeLink)
	base := points[0]
	prev := 0.0
	for _, p := range points {
		s := float64(base.RoundTime) / float64(p.RoundTime)
		if s+1e-9 < prev {
			t.Fatalf("strong scaling speedup regressed: %v", points)
		}
		prev = s
	}
	if prev < 3 {
		t.Fatalf("peak strong-scaling speedup %.2f, want >= 3", prev)
	}
}

func TestCompressionHelpsScaling(t *testing.T) {
	// Figure 9's FedSZ-vs-uncompressed gap: same compute, 10x fewer bytes
	// should cut the round time by a large factor at 10 Mbps.
	raw := ClientProfile{ComputeTime: time.Second, UploadBytes: 10 << 20}
	fz := ClientProfile{ComputeTime: time.Second, CompressTime: 200 * time.Millisecond, UploadBytes: 1 << 20}
	pr := SimulateRound(raw, 16, 16, EdgeLink)
	pf := SimulateRound(fz, 16, 16, EdgeLink)
	if float64(pr.RoundTime)/float64(pf.RoundTime) < 4 {
		t.Fatalf("compression speedup %.2f, want >= 4 (raw %v fedsz %v)",
			float64(pr.RoundTime)/float64(pf.RoundTime), pr.RoundTime, pf.RoundTime)
	}
}

func TestSimulateRoundValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for zero workers")
		}
	}()
	SimulateRound(ClientProfile{}, 1, 0, EdgeLink)
}

func TestThrottleWriterPacesThroughput(t *testing.T) {
	// 250 KB at 100 Mbps is 20 ms of transmission; assert the write takes
	// at least half of that (generous slack for coarse sleep timers) and
	// delivers every byte intact.
	link := Link{BandwidthMbps: 100}
	var buf bytes.Buffer
	w := link.ThrottleWriter(&buf)
	payload := make([]byte, 250_000)
	for i := range payload {
		payload[i] = byte(i)
	}
	t0 := time.Now()
	n, err := w.Write(payload)
	elapsed := time.Since(t0)
	if err != nil || n != len(payload) {
		t.Fatalf("write n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf.Bytes(), payload) {
		t.Fatal("throttled writer corrupted the payload")
	}
	want := link.TransmitTime(len(payload))
	if elapsed < want/2 {
		t.Fatalf("250 KB at 100 Mbps took %v, want >= %v", elapsed, want/2)
	}
}
