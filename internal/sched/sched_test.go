package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestGroupRunsEveryTask(t *testing.T) {
	for _, par := range []int{1, 2, 4, 16} {
		p := NewPool(par)
		for _, n := range []int{0, 1, 2, 3, 17, 100, 1000} {
			seen := make([]atomic.Int32, n)
			g := p.Group()
			for i := range seen {
				g.Go(func() { seen[i].Add(1) })
			}
			g.Wait()
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("par=%d n=%d: task %d ran %d times", par, n, i, got)
				}
			}
		}
	}
}

func TestGroupNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Parallelism() != 1 {
		t.Fatalf("nil pool parallelism %d", p.Parallelism())
	}
	g := p.Group()
	sum := 0
	for i := 0; i < 10; i++ {
		g.Go(func() { sum += i }) // no race: must run on caller
	}
	g.Wait()
	if sum != 45 {
		t.Fatalf("sum %d", sum)
	}
}

func TestGroupStaysWithinBudget(t *testing.T) {
	for _, par := range []int{3, 4} {
		p := NewPool(par)
		g := p.Group()
		var cur, peak atomic.Int32
		for i := 0; i < 200; i++ {
			g.Go(func() {
				c := cur.Add(1)
				for {
					pk := peak.Load()
					if c <= pk || peak.CompareAndSwap(pk, c) {
						break
					}
				}
				for j := 0; j < 1000; j++ { // hold the slot briefly
					_ = j
				}
				cur.Add(-1)
			})
		}
		g.Wait()
		if pk := peak.Load(); pk > int32(par) {
			t.Fatalf("peak concurrency %d exceeds budget %d", pk, par)
		}
	}
}

// TestSharedBudgetAcrossGoroutines: many goroutines hammering one pool,
// each through its own group, must all complete (token leak or lost-wakeup
// bugs would hang here and trip the test timeout) and hand every token back.
func TestSharedBudgetAcrossGoroutines(t *testing.T) {
	p := NewPool(3)
	var wg sync.WaitGroup
	var total atomic.Int64
	for range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := p.Group()
			for range 50 {
				g.Go(func() { total.Add(1) })
			}
			g.Wait()
		}()
	}
	wg.Wait()
	if total.Load() != 16*50 {
		t.Fatalf("total %d", total.Load())
	}
	if b := p.Busy(); b != 0 {
		t.Fatalf("%d tokens held after every group finished", b)
	}
}

// TestGroupNestedInGroupDoesNotDeadlock is the chunk-inside-tensor shape:
// every task of an outer group fans its own chunks out through an inner
// group on the same pool and waits on it.
func TestGroupNestedInGroupDoesNotDeadlock(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		p := NewPool(par)
		var total atomic.Int64
		outer := p.Group()
		for range 8 {
			outer.Go(func() {
				inner := p.Group()
				for range 8 {
					inner.Go(func() { total.Add(1) })
				}
				inner.Wait()
			})
		}
		outer.Wait()
		if total.Load() != 64 {
			t.Fatalf("par=%d: total %d", par, total.Load())
		}
		if b := p.Busy(); b != 0 {
			t.Fatalf("par=%d: %d tokens held after the groups finished", par, b)
		}
	}
}

func TestGroupReusableAfterWait(t *testing.T) {
	p := NewPool(4)
	g := p.Group()
	var total atomic.Int64
	g.Go(func() { total.Add(1) })
	g.Wait()
	g.Go(func() { total.Add(1) })
	g.Wait()
	if total.Load() != 2 {
		t.Fatalf("total %d", total.Load())
	}
}

func TestBytePoolRoundTrip(t *testing.T) {
	b := GetBytes(100)
	if len(b) != 0 || cap(b) < 100 {
		t.Fatalf("len=%d cap=%d", len(b), cap(b))
	}
	b = append(b, 1, 2, 3)
	PutBytes(b)
	c := GetBytes(10)
	if len(c) != 0 {
		t.Fatalf("reused buffer not reset: len=%d", len(c))
	}
	PutBytes(nil) // must not panic
}

func TestFloatPoolRoundTrip(t *testing.T) {
	f := GetFloats(64)
	if len(f) != 0 || cap(f) < 64 {
		t.Fatalf("len=%d cap=%d", len(f), cap(f))
	}
	f = append(f, 1.5)
	PutFloats(f)
	g := GetFloats(8)
	if len(g) != 0 {
		t.Fatalf("reused buffer not reset: len=%d", len(g))
	}
	PutFloats(nil)
}

func TestUint16PoolRoundTrip(t *testing.T) {
	s := GetUint16s(128)
	if len(s) != 0 || cap(s) < 128 {
		t.Fatalf("len=%d cap=%d", len(s), cap(s))
	}
	s = append(s, 7)
	PutUint16s(s)
	g := GetUint16s(16)
	if len(g) != 0 {
		t.Fatalf("reused buffer not reset: len=%d", len(g))
	}
	PutUint16s(nil)
}

func TestUint64PoolRoundTrip(t *testing.T) {
	s := GetUint64s(32)
	if len(s) != 0 || cap(s) < 32 {
		t.Fatalf("len=%d cap=%d", len(s), cap(s))
	}
	s = append(s, 9)
	PutUint64s(s)
	g := GetUint64s(4)
	if len(g) != 0 {
		t.Fatalf("reused buffer not reset: len=%d", len(g))
	}
	PutUint64s(nil)
}

func TestGetBytesSizeClasses(t *testing.T) {
	// A fresh pooled buffer is rounded up to its power-of-two class.
	b := GetBytes(1000)
	if cap(b) < 1024 {
		t.Fatalf("cap %d, want at least the 1024 class", cap(b))
	}
	PutBytes(b)
	// Same-class requests reuse pooled buffers. sync.Pool drops items
	// randomly under the race detector, so assert statistically: across
	// many put/get rounds at least one must hit, and every buffer handed
	// out is the exact class capacity.
	h0, _ := BytePoolCounters()
	for i := 0; i < 64; i++ {
		b2 := GetBytes(600)
		if cap(b2) < 1024 {
			t.Fatalf("reused cap %d, want at least the 1024 class", cap(b2))
		}
		PutBytes(b2)
	}
	if h1, _ := BytePoolCounters(); h1 == h0 {
		t.Fatal("64 same-class put/get rounds never hit the pool")
	}
	// A much larger class must never steal a small buffer: the handed-out
	// capacity is always the request's own class.
	big := GetBytes(1 << 20)
	if cap(big) < 1<<20 {
		t.Fatalf("big cap %d, want at least 1<<20", cap(big))
	}
	PutBytes(big)
	// Tiny buffers are not pooled at all.
	tiny := GetBytes(8)
	if cap(tiny) < 64 {
		t.Fatalf("tiny cap %d, want at least the floor class 64", cap(tiny))
	}
}

func TestPutBytesForeignCapacityFilesByFloor(t *testing.T) {
	// A buffer whose capacity is not a power of two files under the class
	// its capacity fully covers, so a later get still fits.
	odd := make([]byte, 0, 1536) // floor class 1024
	PutBytes(odd)
	got := GetBytes(900)
	if cap(got) < 900 {
		t.Fatalf("foreign buffer reused with cap %d for a 900-byte request", cap(got))
	}
	PutBytes(got)
}

// TestConsecutivePutsAllRetained locks the pool's header discipline: a
// fold-and-release loop (core.Release) puts a whole model's same-class
// buffers back-to-back, and every one of them must survive for the next
// round's gets — put must never pop a class pool for a slice header, since
// the popped header still carries a live buffer that would be dropped.
func TestConsecutivePutsAllRetained(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops random Puts; retention is not observable")
	}
	const k = 8
	const n = 100000 // distinctive class so other tests' buffers don't serve the gets
	bufs := make([][]float32, k)
	for i := range bufs {
		bufs[i] = GetFloats(n)
	}
	h0, _ := FloatPoolCounters()
	for _, b := range bufs {
		PutFloats(b)
	}
	for i := 0; i < k; i++ {
		GetFloats(n)
	}
	h1, _ := FloatPoolCounters()
	if hits := h1 - h0; hits != k {
		t.Fatalf("only %d of %d consecutively-released buffers survived the pool", hits, k)
	}
}

// TestCrossClassFallbackProbe locks the one-class-up probe: a request
// whose home class is empty must reuse an idle buffer from the adjacent
// larger class instead of allocating. This is the skewed-dict shape — one
// dominant tensor's buffers parked one class above a tail of smaller
// requests.
func TestCrossClassFallbackProbe(t *testing.T) {
	// 4 MiB buffer files under byte class 22; a 2 MiB request homes in
	// class 21 and must be served by the probe. sync.Pool drops items
	// randomly under the race detector, so assert statistically across
	// rounds (the served buffer refiles under class 22 each time).
	h0, _ := BytePoolCounters()
	big := make([]byte, 0, 4<<20)
	PutBytes(big)
	for i := 0; i < 64; i++ {
		b := GetBytes(2 << 20)
		if cap(b) < 2<<20 {
			t.Fatalf("cap %d below the 2 MiB request", cap(b))
		}
		PutBytes(b)
	}
	if h1, _ := BytePoolCounters(); h1 == h0 {
		t.Fatal("64 rounds against an adjacent-class buffer never hit the pool")
	}

	// Same discipline on the float pool (decode-output buffers).
	fh0, _ := FloatPoolCounters()
	PutFloats(make([]float32, 0, 1<<20))
	for i := 0; i < 64; i++ {
		f := GetFloats(1 << 19)
		if cap(f) < 1<<19 {
			t.Fatalf("float cap %d below the request", cap(f))
		}
		PutFloats(f)
	}
	if fh1, _ := FloatPoolCounters(); fh1 == fh0 {
		t.Fatal("float pool fallback probe never hit")
	}
}
