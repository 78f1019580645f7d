// Package sched is the shared concurrency substrate for the FedSZ
// pipeline: a bounded worker pool with caller-runs semantics and
// sync.Pool-backed reuse of the large transient byte/float32 buffers the
// codecs churn through.
//
// The pool exists to give one *process-wide* (or one *batch-wide*)
// parallelism budget. The seed code bounded each Compress call by
// GOMAXPROCS independently, so an aggregation server decoding N client
// streams concurrently oversubscribed the machine N-fold. A sched.Pool is
// instead shared: the outer batch loop and the per-tensor fan-out inside
// each call draw helper tokens from the same budget, so total concurrency
// stays at the configured parallelism regardless of nesting.
//
// Deadlock freedom comes from the caller-runs discipline: Group.Go never
// blocks waiting for a token — a task runs on a helper goroutine only when
// a token is free, and on the submitting goroutine otherwise. Nested groups
// therefore cannot starve each other.
package sched

import (
	"io"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded parallelism budget. The zero value is not usable; call
// NewPool. A nil *Pool is valid and runs everything serially.
type Pool struct {
	// sem holds helper tokens: parallelism-1 slots, since the calling
	// goroutine always participates as the +1.
	sem chan struct{}
}

// NewPool returns a pool with the given parallelism budget. Zero or
// negative selects GOMAXPROCS.
func NewPool(parallelism int) *Pool {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, parallelism-1)}
}

var defaultPool = sync.OnceValue(func() *Pool { return NewPool(0) })

// Default returns the process-wide shared pool, sized to GOMAXPROCS.
// Every caller that does not bring its own pool shares this budget, so
// concurrent Compress/Decompress calls cannot oversubscribe the machine.
func Default() *Pool { return defaultPool() }

// Parallelism returns the pool's configured budget (1 for a nil pool).
func (p *Pool) Parallelism() int {
	if p == nil {
		return 1
	}
	return cap(p.sem) + 1
}

// Busy returns the number of helper tokens currently held (0 for a nil or
// quiescent pool) — the observable for asserting that an aborted Group
// drained without leaking pool slots.
func (p *Pool) Busy() int {
	if p == nil {
		return 0
	}
	return len(p.sem)
}

// Group schedules independent tasks against the pool's helper budget
// without a barrier between submissions — the pipelining primitive behind
// decode-while-receiving: a reader goroutine submits tensor i's decode and
// immediately returns to reading tensor i+1 from the network.
//
// Go follows the caller-runs discipline: it never blocks waiting for a
// token. When the budget is exhausted the submitting goroutine runs the
// task inline, which stalls submission — exactly the backpressure a
// streaming ingester wants (the socket read pauses, TCP flow control pushes
// back on the sender) — and keeps nested use deadlock-free.
type Group struct {
	p  *Pool
	wg sync.WaitGroup
}

// Group returns a new task group drawing helpers from p (nil runs every
// task inline).
func (p *Pool) Group() *Group { return &Group{p: p} }

// Go runs fn on a helper goroutine when a budget token is free, otherwise
// inline on the calling goroutine. It never blocks waiting for capacity.
func (g *Group) Go(fn func()) {
	if g.p != nil && cap(g.p.sem) > 0 {
		select {
		case g.p.sem <- struct{}{}:
			g.wg.Add(1)
			go func() {
				defer g.wg.Done()
				defer func() { <-g.p.sem }()
				fn()
			}()
			return
		default:
		}
	}
	fn()
}

// Wait blocks until every task submitted so far has finished. Go may be
// called again afterwards; Wait must not run concurrently with Go.
func (g *Group) Wait() { g.wg.Wait() }

// maxPooledBytes caps what the buffer pools retain so a one-off giant
// model does not pin its buffers forever (64 MiB ≈ a 16 M-parameter
// partition, well above the per-tensor sizes the pipeline sees).
const maxPooledBytes = 64 << 20

// recycledBytes counts the capacity (in bytes) of every buffer returned to
// any sched pool — the observable behind DecompressStats.BytesRecycled: how
// much storage the zero-copy pipeline handed back for reuse instead of
// dropping to the garbage collector.
var recycledBytes atomic.Uint64

// RecycledBytes returns the process-wide total of buffer bytes recycled
// through the sched pools. Callers snapshot before/after a region and diff.
func RecycledBytes() uint64 { return recycledBytes.Load() }

// slicePool is the shared implementation behind the typed Get/Put pairs: a
// size-classed set of sync.Pools of slice headers handing out zero-length
// slices with enough capacity. Requests round up to power-of-two element
// classes (bytes included: GetBytes) so a small tensor cannot "win" and pin a
// multi-megabyte reconstruction buffer. elemSize bounds retention in bytes,
// not elements, so every element type shares the same 64 MiB ceiling.
type slicePool[T any] struct {
	classes [maxClassBits + 1]sync.Pool
	// headers recycles *empty* slice headers: get pops a full header from
	// a class, takes its buffer, and parks the emptied header here for the
	// next put. Puts must never Get() from a class pool for a header — a
	// popped header still carries a live buffer, and overwriting it drops
	// that buffer (consecutive puts would then retain only one of k).
	headers  sync.Pool
	hits     atomic.Uint64
	misses   atomic.Uint64
	puts     atomic.Uint64
	elemSize int
}

func newSlicePool[T any](elemSize int) *slicePool[T] {
	return &slicePool[T]{elemSize: elemSize}
}

func (p *slicePool[T]) get(n int) []T {
	if n*p.elemSize > maxPooledBytes {
		p.misses.Add(1)
		return make([]T, 0, n)
	}
	c := classFor(n)
	// Miss at the home class falls through to one probe of the next class
	// up: its floor-filed buffers always cover n, and a mixed-size workload
	// (one dominant tensor plus a tail of small ones) otherwise leaves the
	// small classes starved while adjacent classes hold idle buffers. The
	// worst-case handout is 4× the request — bounded, unlike the unclassed
	// pool this design replaced. Measured: without the probe bench/'s
	// delta_rounds peaks at 303 MB RSS instead of 238; the other workloads
	// do not notice.
	for probe := c; probe <= c+1 && probe <= maxClassBits; probe++ {
		if sp, ok := p.classes[probe].Get().(*[]T); ok {
			s := *sp
			*sp = nil
			p.headers.Put(sp)
			if cap(s) >= n {
				p.hits.Add(1)
				return s[:0]
			}
		}
	}
	p.misses.Add(1)
	return make([]T, 0, 1<<c)
}

func (p *slicePool[T]) put(s []T) {
	if cap(s) > 0 {
		p.puts.Add(1)
	}
	// Buffers file under the class their capacity fully covers (floor of
	// log2 elements), so a get from that class always has enough room.
	// Classes below the get-side floor are never probed, so tiny buffers
	// are cheaper to drop than to file.
	if cap(s) < 1<<minClassBits || cap(s)*p.elemSize > maxPooledBytes {
		return
	}
	c := bits.Len(uint(cap(s))) - 1
	recycledBytes.Add(uint64(cap(s) * p.elemSize))
	s = s[:0]
	sp, _ := p.headers.Get().(*[]T)
	if sp == nil {
		sp = new([]T)
	}
	*sp = s
	p.classes[c].Put(sp)
}

func (p *slicePool[T]) counters() (hits, misses uint64) {
	return p.hits.Load(), p.misses.Load()
}

var (
	u16Pool = newSlicePool[uint16](2)
	u64Pool = newSlicePool[uint64](8)
	i32Pool = newSlicePool[int32](4)
	f64Pool = newSlicePool[float64](8)
)

// Byte buffers are the pipeline's highest-churn allocation (every tensor
// blob, wire frame, and lossless scratch passes through GetBytes), and
// under a streaming server the requested sizes are wildly mixed: 100-byte
// metadata sections next to multi-megabyte weight blobs. A single pool
// class degenerates there — a small request can "win" a huge buffer and
// pin it, or a big request can miss because the pool only holds small
// ones. GetBytes therefore rounds requests up to power-of-two size
// classes with one sync.Pool per class: requests only ever hit buffers of
// their own class, so many concurrent connections with mixed tensor sizes
// stop churning one shared free list.
const (
	// minClassBits floors the classes at 64 B; smaller buffers are cheaper
	// to allocate than to pool.
	minClassBits = 6
	// maxClassBits caps pooled retention at 64 MiB (== maxPooledBytes), so
	// a one-off giant model does not pin its buffers forever.
	maxClassBits = 26
)

// classFor returns the smallest class whose buffers hold n bytes.
func classFor(n int) int {
	c := bits.Len(uint(n - 1))
	if n <= 1 {
		c = 0
	}
	if c < minClassBits {
		c = minClassBits
	}
	return c
}

var bytePool = newSlicePool[byte](1)

// GetBytes returns a zero-length byte slice with capacity at least n,
// reusing a pooled buffer of n's power-of-two size class when one is
// available. Pass the result to PutBytes when it is no longer referenced
// anywhere.
func GetBytes(n int) []byte { return bytePool.get(n) }

// PutBytes recycles b for a future GetBytes. The caller must not retain
// any reference (including sub-slices) to b afterwards.
func PutBytes(b []byte) { bytePool.put(b) }

// BytePoolCounters reports the process-wide GetBytes hit/miss totals —
// the observable for deciding whether concurrent connections are churning
// the pools. Callers snapshot before/after a region and diff; under
// concurrency the delta attributes shared traffic approximately.
func BytePoolCounters() (hits, misses uint64) { return bytePool.counters() }

// GetUint16s returns a zero-length uint16 slice with capacity at least n —
// the scratch type the entropy stage moves quantization codes in.
func GetUint16s(n int) []uint16 { return u16Pool.get(n) }

// PutUint16s recycles s for a future GetUint16s. The caller must not retain
// any reference to s afterwards.
func PutUint16s(s []uint16) { u16Pool.put(s) }

// GetUint64s returns a zero-length uint64 slice with capacity at least n
// (Huffman frequency-count scratch).
func GetUint64s(n int) []uint64 { return u64Pool.get(n) }

// PutUint64s recycles s for a future GetUint64s. The caller must not retain
// any reference to s afterwards.
func PutUint64s(s []uint64) { u64Pool.put(s) }

// readChunk is ReadFullPooled's growth step: allocation tracks bytes
// actually received, so a hostile length prefix cannot force a large
// up-front allocation.
const readChunk = 1 << 20

// ReadFullPooled reads exactly n bytes from r into a pooled buffer,
// growing it chunk-by-chunk with the data received — the untrusted-length
// receive discipline of the wire de-framer. On success the caller owns the
// buffer and should recycle it via PutBytes; on error the buffer has
// already been recycled.
func ReadFullPooled(r io.Reader, n int) ([]byte, error) {
	buf := GetBytes(min(n, readChunk))
	for len(buf) < n {
		chunk := min(n-len(buf), readChunk)
		if cap(buf) < len(buf)+chunk {
			grown := GetBytes(max(2*cap(buf), len(buf)+chunk))
			grown = append(grown, buf...)
			PutBytes(buf)
			buf = grown
		}
		read := len(buf)
		buf = buf[:read+chunk]
		if _, err := io.ReadFull(r, buf[read:]); err != nil {
			PutBytes(buf)
			return nil, err
		}
	}
	return buf, nil
}

var floatPool = newSlicePool[float32](4)

// GetFloats returns a zero-length float32 slice with capacity at least n,
// reusing a pooled buffer of n's power-of-two size class when one is
// available — the buffer type decoded tensors land in on the zero-copy
// decompress path.
func GetFloats(n int) []float32 { return floatPool.get(n) }

// PutFloats recycles f for a future GetFloats. The caller must not retain
// any reference to f afterwards.
func PutFloats(f []float32) { floatPool.put(f) }

// FloatPoolCounters reports the process-wide GetFloats hit/miss totals —
// the decode-output mirror of BytePoolCounters. Callers snapshot
// before/after a region and diff.
func FloatPoolCounters() (hits, misses uint64) { return floatPool.counters() }

// FloatPoolPuts returns how many float32 buffers have been handed back
// through PutFloats. Over a region that must not keep what it takes — a
// rejected update, a cancelled decode — the delta equals the delta of
// hits+misses, or a buffer leaked.
func FloatPoolPuts() uint64 { return floatPool.puts.Load() }

// GetFloat64s returns a zero-length float64 slice with capacity at least n
// (interpolation-predictor reconstruction scratch).
func GetFloat64s(n int) []float64 { return f64Pool.get(n) }

// PutFloat64s recycles f for a future GetFloat64s. The caller must not
// retain any reference to f afterwards.
func PutFloat64s(f []float64) { f64Pool.put(f) }

// GetInt32s returns a zero-length int32 slice with capacity at least n
// (LZ hash-chain scratch).
func GetInt32s(n int) []int32 { return i32Pool.get(n) }

// PutInt32s recycles s for a future GetInt32s. The caller must not retain
// any reference to s afterwards.
func PutInt32s(s []int32) { i32Pool.put(s) }
