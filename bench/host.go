package main

// The host-speed reference. The benchmark runs on shared hosts: on the
// 2-vCPU VM it was built on, neighbours slow this program's rounds by 20 to
// 40 % for minutes at a time (steal time stays under 3 % and a register-only
// loop barely moves; code that touches memory does). A whole run can sit
// inside such a phase, so no statistic over one run's samples removes it.
// Instead every run times a fixed kernel of its own between rounds, outside
// every timed window, and reports its times as they would read on a host
// that runs the kernel in refNominal: see quiet.

import (
	"sync"
	"time"
)

const (
	// refElems is each goroutine's share of the kernel: 16 MB of float32,
	// four L2s' worth, summed in order.
	refElems = 4 << 20
	// refNominal is what one pass takes on the build host when it is quiet.
	refNominal = 4.0e-3
	// refEvery is the least time between two samples.
	refEvery = 150 * time.Millisecond
)

// hostRef times the kernel: inFlight goroutines, as many as the load model
// keeps busy, each summing its own buffer.
type hostRef struct {
	bufs [inFlight][]float32
	sink [inFlight]float32
	last time.Time
	// samples are the kernel times taken so far, in seconds.
	samples []float64
}

func newHostRef() *hostRef {
	h := &hostRef{}
	for g := range h.bufs {
		h.bufs[g] = make([]float32, refElems)
		for i := range h.bufs[g] {
			h.bufs[g][i] = float32(i&1023) * 0x1p-10
		}
	}
	return h
}

func (h *hostRef) pass() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := range h.bufs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var s float32
			for _, v := range h.bufs[g] {
				s += v
			}
			h.sink[g] = s
		}(g)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// sample takes one sample: the quickest of three passes, which drops the
// first pass's cold caches and a pass that lost a CPU for a moment.
func (h *hostRef) sample() float64 {
	s := min(h.pass(), h.pass(), h.pass())
	h.samples = append(h.samples, s)
	h.last = time.Now()
	return s
}

// mark takes a sample when the last one is older than refEvery, and returns
// the index of the latest sample; the one after it brackets whatever runs
// next.
func (h *hostRef) mark() int {
	if time.Since(h.last) >= refEvery {
		h.sample()
	}
	return len(h.samples) - 1
}

// around is the mean of sample i and the one after it, if taken.
func (h *hostRef) around(i int) float64 {
	return (h.samples[i] + h.samples[min(i+1, len(h.samples)-1)]) / 2
}

// quiet returns the factor that takes a time measured over an interval of
// wall seconds, in which the process used cpu CPU-seconds while the kernel
// took ref, to what it would read at refNominal. Only the share of the
// interval the process kept its inFlight CPUs busy scales with the host's
// speed; the rest is waiting — on the link model's pacing, above all — and
// stays as measured. A throttled round is therefore left almost alone, a
// CPU-bound one is scaled by nearly refNominal/ref.
func quiet(wall, cpu, ref float64) float64 {
	busy := min(1, ratio(cpu, inFlight*wall))
	return 1 - busy*(1-refNominal/ref)
}
