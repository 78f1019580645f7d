package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
)

// BenchmarkInlineGate fixes inlineMaxElems. Per tensor size it decodes eight
// blobs of that size the two ways DecodeSections can: each inline on the
// calling goroutine, or each handed to a pool Group (caller-runs when the
// budget is taken), by one decoder alone and by GOMAXPROCS decoders sharing
// one pool, as a loaded server's connections do. The handoff/inline column
// is the median per-iteration time ratio; the two ways alternate inside one
// process, so host noise cancels. Above 1 the handoff costs more than the
// overlap it buys.
func BenchmarkInlineGate(b *testing.B) {
	for _, elems := range []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10} {
		stream := benchStream(b, 8, elems)
		secs, err := Sections(stream)
		if err != nil {
			b.Fatal(err)
		}
		hdr, err := ParseHeader(secs.Header)
		if err != nil {
			b.Fatal(err)
		}
		lossy, _, err := hdr.codecs()
		if err != nil {
			b.Fatal(err)
		}
		blobs := make([][]byte, len(secs.Tensors))
		for i, sec := range secs.Tensors {
			pt, err := ParseTensorSection(hdr, sec, nil)
			if err != nil {
				b.Fatal(err)
			}
			blobs[i] = pt.Blob
		}
		for _, decoders := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("elems=%dKi/decoders=%d", elems>>10, decoders), func(b *testing.B) {
				pool := sched.NewPool(0)
				decode := func(blob []byte) {
					data, _, _, err := decodeBlobInto(lossy, sched.GetFloats(elems), blob, elems, hdr.Chunked(), nil)
					if err != nil {
						panic(err)
					}
					sched.PutFloats(data)
				}
				set := func(handoff bool) {
					g := pool.Group()
					for _, blob := range blobs {
						if handoff {
							g.Go(func() { decode(blob) })
						} else {
							decode(blob)
						}
					}
					g.Wait()
				}
				run := func(handoff bool) time.Duration {
					t0 := time.Now()
					var wg sync.WaitGroup
					for range decoders {
						wg.Add(1)
						go func() {
							defer wg.Done()
							set(handoff)
						}()
					}
					wg.Wait()
					return time.Since(t0)
				}
				ratios := make([]float64, b.N)
				for i := range ratios {
					var inline, handoff time.Duration
					if i%2 == 0 {
						inline, handoff = run(false), run(true)
					} else {
						handoff, inline = run(true), run(false)
					}
					ratios[i] = float64(handoff) / float64(inline)
				}
				slices.Sort(ratios)
				b.ReportMetric(ratios[len(ratios)/2], "handoff/inline")
			})
		}
	}
}
