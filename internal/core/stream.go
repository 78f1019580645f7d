package core

// Section-by-section decode: the one pipeline behind every decode entry
// point and every server.
//
// A FedSZ stream is sequential — header, per-tensor sections, one
// lossless-partition section — so it decodes incrementally: as soon as
// tensor i's section is complete its decode is submitted to the worker
// pool and the caller moves on to section i+1. DecodeSections is that loop,
// written once. It pulls sections from a SectionSource and does not care
// where they come from: zero-copy views of an in-memory stream, cut by the
// parse.go readers (Decompress*), or wire-frame payloads off an io.Reader
// (internal/wire.SectionSource, which is what flserve and agg.Sharded feed
// it, and the one way a stream is decoded while it arrives). Every check on
// untrusted input — entry and element caps, the delta-reference
// conditions, the adopted structure, duplicate names, the metadata
// partition's entries — is made here or in the parse.go functions it calls,
// so both sources reject the same streams with the same error class, and
// every abort path drains the pool and returns the staged buffers.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sync/atomic"
	"time"

	"repro/internal/ebcl"
	"repro/internal/lanes"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// maxStreamEntries bounds the tensor count a header may declare before the
// flag array is allocated (a real model has a few hundred entries).
const maxStreamEntries = 1 << 20

// maxStreamElements bounds the lossy elements one stream may declare in all
// (1 GiB of float32). It is a var only so that tests can lower it.
var maxStreamElements = 1 << 28

// SectionSource delivers a FedSZ stream one section at a time, in stream
// order: the header, one tensor section per lossy entry, the metadata
// section.
type SectionSource interface {
	// Next returns the next section, which the decoder expects to be of the
	// given kind. The bytes stay valid until Release.
	Next(kind SectionKind) ([]byte, error)
	// Release recycles a section Next returned. Decode tasks call it from
	// pool goroutines, so it must be safe for concurrent use.
	Release(section []byte)
	// ReadWait reports the time spent blocked on input so far.
	ReadWait() time.Duration
}

// memSections serves zero-copy section views of an in-memory stream. It
// cuts each section with that section's parse.go reader, so the layout has
// one reading and every section served has passed its checks.
type memSections struct {
	data []byte       // the stream from the next section on
	hdr  ParsedHeader // the header, once served: tensor sections read it
}

func (m *memSections) Next(kind SectionKind) ([]byte, error) {
	var n int
	var err error
	switch kind {
	case SectionHeader:
		m.hdr, _, n, err = headerAt(m.data)
	case SectionTensor:
		_, n, err = tensorAt(&m.hdr, m.data)
	default:
		// The metadata section ends the stream: bytes after it are no part
		// of any section.
		if _, n, err = losslessAt(m.data); err == nil && n != len(m.data) {
			err = fmt.Errorf("%w: %d bytes after the metadata section", ErrCorrupt, len(m.data)-n)
		}
	}
	if err != nil {
		return nil, err
	}
	sec := m.data[:n]
	m.data = m.data[n:]
	return sec, nil
}

func (*memSections) Release([]byte)          {}
func (*memSections) ReadWait() time.Duration { return 0 }

// StreamSections splits a FedSZ stream into its transport framing units.
// All fields are views into the original stream, not copies, and their
// concatenation (Header, Tensors..., Lossless) is the logical stream.
type StreamSections struct {
	// Header spans the fixed preamble: magic, version, compressor names,
	// entry count, and path flags.
	Header []byte
	// Tensors holds one unit per lossy tensor: name, kind, shape, and the
	// length-prefixed compressed blob.
	Tensors [][]byte
	// Lossless is the length-prefixed lossless-partition section.
	Lossless []byte
}

// Sections splits a serialized FedSZ stream into its sections without
// decoding any payloads, the sender-side half of wire framing. It reads
// each section once, with the parse.go reader that delimits it, so every
// returned section has passed its parser's checks; bytes after the metadata
// section are refused as ErrCorrupt.
func Sections(stream []byte) (*StreamSections, error) {
	src := memSections{data: stream}
	s := &StreamSections{}
	var err error
	if s.Header, err = src.Next(SectionHeader); err != nil {
		return nil, err
	}
	s.Tensors = make([][]byte, src.hdr.LossyCount)
	for i := range s.Tensors {
		if s.Tensors[i], err = src.Next(SectionTensor); err != nil {
			return nil, err
		}
	}
	if s.Lossless, err = src.Next(SectionLossless); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodedTensor is one lossy tensor reconstructed by DecodeSections, in one
// of two forms. Usually Data holds the reconstruction. A residual section
// that is a constant block (the codec's 13-byte LayoutConstant stream of v
// over update − reference) is left unwritten instead: Data is nil and the
// tensor is fl(Ref[i] + Const) element by element, which the aggregator folds
// straight from the reference (lanes.AddScaledOffset) and StateDict writes
// out (lanes.Offset), the same bits either way.
//
// Ref aliases the tensor of DecodeOptions.Reference, so a constant tensor is
// valid only while the caller holds that epoch's reference unchanged; a
// delta.Ref advances only between rounds. A caller that keeps a
// DecodedStream past that point must materialize it first with StateDict.
type DecodedTensor struct {
	Name  string
	Kind  tensor.Kind
	Shape []int
	// Data is the reconstruction, in a pool-backed float buffer; nil for a
	// constant residual.
	Data []float32
	// Finite is the decoder's verdict on Data: it holds no NaN and no
	// infinity. A constant residual's verdict is the caller's to form.
	Finite bool
	// Ref and Const are a constant residual: Ref is the reference tensor's
	// data and Const the residual's value. Ref is nil otherwise.
	Ref   []float32
	Const float32
	err   error
}

// Elems is the tensor's element count, in either form.
func (t *DecodedTensor) Elems() int {
	if t.Data == nil {
		return len(t.Ref)
	}
	return len(t.Data)
}

// DecodedStream is a stream decoded section by section but not yet
// assembled: what a section-routing aggregator folds directly, and what
// StateDict turns into a state dict. Its buffers are pooled — hand them on
// (StateDict, or take Data and nil it) or Release them. Its constant tensors
// read the reference (see DecodedTensor).
type DecodedStream struct {
	// Flags holds the per-entry path flags in original dict order; two
	// streams with equal Flags interleave their partitions identically.
	Flags []byte
	// Tensors holds the lossy tensors in stream order.
	Tensors []DecodedTensor
	// Meta is the lossless partition as it decompressed: a
	// tensor.StateDict's serialized entries, in a pooled byte buffer. They
	// have passed every check tensor.UnmarshalStateDict makes, so a
	// tensor.Reader walks them in place.
	Meta []byte
}

// Release returns every buffer the stream still owns to the pools; a
// constant tensor owns none.
func (d *DecodedStream) Release() {
	for i := range d.Tensors {
		sched.PutFloats(d.Tensors[i].Data)
		d.Tensors[i].Data = nil
	}
	sched.PutBytes(d.Meta)
	d.Meta = nil
}

// Structure returns the structure d fixes for a round's later updates. Call
// it before StateDict takes the tensors' buffers.
func (d *DecodedStream) Structure() *Structure {
	s := &Structure{Flags: d.Flags, Lossy: make([]TensorShape, len(d.Tensors))}
	for i := range d.Tensors {
		t := &d.Tensors[i]
		s.Lossy[i] = TensorShape{Name: t.Name, Kind: t.Kind, Shape: t.Shape, Elems: t.Elems()}
	}
	return s
}

// StateDict assembles the partitions into one state dict in the original
// entry order, writing each constant tensor out into a pooled buffer
// (lanes.Offset), so the dict no longer reads the reference. The dict takes
// over the tensor buffers; recycle them with core.Release once it is dead.
func (d *DecodedStream) StateDict() *tensor.StateDict {
	metaDict, err := tensor.UnmarshalStateDict(d.Meta)
	if err != nil {
		// validate refused every partition UnmarshalStateDict refuses.
		panic(fmt.Sprintf("core: validated metadata partition: %v", err))
	}
	sched.PutBytes(d.Meta)
	d.Meta = nil
	out := tensor.NewStateDict()
	meta := metaDict.Entries()
	// One array holds every lossy tensor's header; each takes over its
	// decoded shape and data (the decode sized data from that shape).
	lossy := make([]tensor.Tensor, len(d.Tensors))
	li, ri := 0, 0
	for _, f := range d.Flags {
		if f == pathLossy {
			e := &d.Tensors[li]
			if e.Data == nil {
				n := len(e.Ref)
				e.Data = sched.GetFloats(n)[:n]
				lanes.Offset(e.Data, e.Ref, e.Const)
				e.Ref = nil
			}
			lossy[li] = tensor.Tensor{Shape: e.Shape, Data: e.Data}
			out.Add(e.Name, e.Kind, &lossy[li])
			li++
			e.Data = nil
		} else {
			e := meta[ri]
			ri++
			out.Add(e.Name, e.Kind, e.Tensor)
		}
	}
	return out
}

// nameSeed keys the hash validate places lossy names by. A per-process seed
// keeps a hostile stream from choosing names that all collide.
var nameSeed = maphash.MakeSeed()

// validate checks the metadata partition in place and what only the whole
// stream can show. The partition must be what tensor.UnmarshalStateDict
// accepts (magic, entries inside the buffer; bytes after the last entry are
// ignored) and hold exactly the entries the header's flags declare, and no
// name may occur twice (impossible in a stream Compress produced;
// StateDict.Add would panic on one). Every name goes into one open-addressed
// table, the lossy names first: on the stack for up to 64 names, so an
// ordinary update validates without allocating, and linear in the name count
// for a hostile one. It returns the bytes the partition's values take, 4 an
// element.
func (d *DecodedStream) validate() (metaBytes int, err error) {
	r, count, err := tensor.NewReader(d.Meta)
	if err != nil {
		return 0, fmt.Errorf("%w: metadata decode: %w", ErrCorrupt, err)
	}
	if want := len(d.Flags) - len(d.Tensors); uint64(count) != uint64(want) {
		return 0, fmt.Errorf("%w: header declares %d metadata entries, partition holds %d", ErrCorrupt, want, count)
	}
	size := 1
	for size < 2*len(d.Flags) {
		size <<= 1
	}
	// A slot holds 0 when empty, i+1 for lossy tensor i, and -off for the
	// metadata name that starts at d.Meta[off] (off >= 10).
	var small [128]int
	slots := small[:]
	if size > len(small) {
		slots = make([]int, size)
	}
	mask := uint64(size - 1)
	metaName := func(v int) []byte {
		return d.Meta[-v : -v+int(binary.LittleEndian.Uint16(d.Meta[-v-2:]))]
	}
	for i := range d.Tensors {
		name := d.Tensors[i].Name
		h := maphash.String(nameSeed, name) & mask
		for ; slots[h] != 0; h = (h + 1) & mask {
			if d.Tensors[slots[h]-1].Name == name {
				return 0, fmt.Errorf("%w: duplicate tensor %q", ErrCorrupt, name)
			}
		}
		slots[h] = i + 1
	}
	for range count {
		e, ok := r.Next()
		if !ok {
			return 0, fmt.Errorf("%w: metadata decode: %w", ErrCorrupt, tensor.ErrBadFormat)
		}
		h := maphash.Bytes(nameSeed, e.Name) & mask
		for ; slots[h] != 0; h = (h + 1) & mask {
			if v := slots[h]; v > 0 && d.Tensors[v-1].Name == string(e.Name) || v < 0 && bytes.Equal(metaName(v), e.Name) {
				return 0, fmt.Errorf("%w: duplicate tensor %q", ErrCorrupt, e.Name)
			}
		}
		slots[h] = -(cap(d.Meta) - cap(e.Name)) // e.Name is a view of d.Meta
		metaBytes += len(e.Vals)
	}
	return metaBytes, nil
}

// reference resolves the baseline a residual section decodes against. A
// residual is only decodable when this decoder holds the same-epoch
// baseline with a matching tensor — anything else is a reference mismatch,
// not corruption, so the sender can renegotiate an absolute upload.
func (o DecodeOptions) reference(streamEpoch uint32, name string, elems int) ([]float32, error) {
	if o.Reference == nil {
		return nil, fmt.Errorf("%w: residual section %q but no reference supplied", ErrReference, name)
	}
	if o.RefEpoch != streamEpoch {
		return nil, fmt.Errorf("%w: stream encoded against epoch %d, decoder holds %d", ErrReference, streamEpoch, o.RefEpoch)
	}
	rt := o.Reference.Get(name)
	if rt == nil || rt.NumElems() != elems {
		return nil, fmt.Errorf("%w: reference lacks matching tensor %q", ErrReference, name)
	}
	return rt.Data, nil
}

// ctxFirst prefers the context's error over the failure it caused: a
// cancelled socket read otherwise surfaces as a corrupt-looking short
// stream.
func ctxFirst(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// tensorTask is one lossy tensor's decode: it owns sec (pt.Blob aliases it).
// The reconstruction lands straight in a pool-backed buffer sized from the
// declared shape, and a residual folds its baseline back in as it decodes.
// A decoded tensor's time goes to st's reconstruct stage and, for a codec
// whose streams record it, its resolved bound to fedsz_resolved_bound.
type tensorTask struct {
	e       *DecodedTensor
	lossy   ebcl.Compressor
	st      *stageHists
	work    *atomic.Int64
	src     SectionSource
	sec     []byte
	pt      ParsedTensor
	ref     []float32
	chunked bool
}

func (t *tensorTask) run(ctx context.Context) {
	defer t.src.Release(t.sec)
	e, pt := t.e, &t.pt
	if e.err = ctx.Err(); e.err != nil {
		return
	}
	if v, ok := constantBlob(t.lossy, pt.Blob, pt.Elems, t.chunked, t.ref); ok {
		e.Ref, e.Const = t.ref[:pt.Elems], v
		return
	}
	t0 := time.Now()
	dst := sched.GetFloats(pt.Elems)
	data, m, first, err := decodeBlobInto(t.lossy, dst, pt.Blob, pt.Elems, t.chunked, t.ref)
	took := time.Since(t0)
	t.work.Add(int64(took))
	t.st.reconstruct.Observe(took.Seconds())
	if err != nil {
		sched.PutFloats(dst)
		e.err = fmt.Errorf("%w: lossy decompress %q: %w", ErrCorrupt, pt.Name, err)
		return
	}
	e.Data, e.Finite = data, m.Finite()
	if eb, ok := t.lossy.ResolvedBound(first); ok {
		t.st.bound.Observe(eb)
	}
}

// DecodeSections decodes one stream from src, scheduling each tensor's
// decode on pool (nil runs serially) as soon as its section is in: the
// calling goroutine submits the section and immediately returns to src for
// the next one. A tensor of fewer than inlineMaxElems elements, unless
// chunked, it decodes itself, as it does any tensor when the pool budget is
// exhausted, which pauses reading — the per-connection backpressure that
// keeps a streaming server's peak memory bounded by its parallelism budget
// rather than its client count. A tensor's chunks (v4) decode serially inside that
// tensor's task. A plain residual blob that is a constant block takes no
// buffer and no pass: its task records the value beside the reference
// tensor (DecodedTensor's constant form, valid while the reference is held).
// Each task's time is the stage histogram reconstruct; the Huffman decode
// inside it is also timed alone, by the codec (ebcl.Sections.Open). The
// tensor whose declared elements take the stream's sum past
// maxStreamElements is refused before its buffer is taken.
//
// Cancelling ctx aborts the decode: pending tasks exit before starting
// their blob and the call returns ctx.Err() after the in-flight ones drain.
// On any error no pool slot and no pooled buffer stays out.
func DecodeSections(ctx context.Context, pool *sched.Pool, src SectionSource, dopts DecodeOptions) (*DecodedStream, *DecompressStats, error) {
	start := time.Now()
	recycled0 := sched.RecycledBytes()

	sec, err := src.Next(SectionHeader)
	if err != nil {
		return nil, nil, ctxFirst(ctx, err)
	}
	streamBytes := len(sec)
	hdr, err := ParseHeader(sec)
	want := dopts.Structure
	if err == nil && want != nil && !bytes.Equal(hdr.Flags, want.Flags) {
		err = fmt.Errorf("%w: path flags differ from %w", ErrCorrupt, ErrStructure)
	}
	if err != nil {
		src.Release(sec)
		return nil, nil, err
	}
	d := &DecodedStream{
		Flags:   append([]byte(nil), hdr.Flags...),
		Tensors: make([]DecodedTensor, hdr.LossyCount),
	}
	hdr.Flags = d.Flags
	src.Release(sec)
	lossy, codec, err := hdr.codecs()
	if err != nil {
		return nil, nil, err
	}
	st := stageFor(lossy)

	// Decode durations accumulate into decodeWork so OverlapRatio can report
	// how much of that work was hidden behind reading.
	var decodeWork atomic.Int64
	var metaErr error
	nDelta, nChunked, elems := 0, 0, 0
	g := pool.Group()
	// fail funnels every abort through one place: in-flight tasks drain,
	// decoded buffers go back to the pool, and cancellation wins over the
	// secondary errors it induces.
	fail := func(err error) (*DecodedStream, *DecompressStats, error) {
		g.Wait()
		d.Release()
		return nil, nil, ctxFirst(ctx, err)
	}
	for i := range d.Tensors {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		sec, err := src.Next(SectionTensor)
		if err != nil {
			return fail(err)
		}
		streamBytes += len(sec)
		var like *TensorShape
		if want != nil {
			like = &want.Lossy[i]
		}
		pt, err := ParseTensorSection(hdr, sec, like)
		elems += pt.Elems
		if err == nil && elems > maxStreamElements {
			err = fmt.Errorf("%w: tensor %d %q takes the stream past the %d-element %w", ErrCorrupt, i, pt.Name, maxStreamElements, ErrLimit)
		}
		var ref []float32
		if err == nil && pt.Delta {
			nDelta++
			ref, err = dopts.reference(hdr.RefEpoch, pt.Name, pt.Elems)
		}
		if err == nil && like != nil && (pt.Name != like.Name || pt.Kind != like.Kind || pt.Elems != like.Elems) {
			err = fmt.Errorf("%w: tensor %d is %s %q[%d], %w holds %s %q[%d]",
				ErrCorrupt, i, pt.Kind, pt.Name, pt.Elems, ErrStructure, like.Kind, like.Name, like.Elems)
		}
		if err != nil {
			src.Release(sec)
			return fail(err)
		}
		if hdr.Chunked() && isChunkedBlob(pt.Blob) {
			nChunked++
		}
		e := &d.Tensors[i]
		e.Name, e.Kind, e.Shape = pt.Name, pt.Kind, pt.Shape
		t := tensorTask{e: e, lossy: lossy, st: st, work: &decodeWork, src: src, sec: sec, pt: pt, ref: ref, chunked: hdr.Chunked()}
		// A small tensor decodes in less time than a handoff to the pool
		// costs, so the reading goroutine decodes it itself.
		if pt.Elems < inlineMaxElems && !(t.chunked && isChunkedBlob(pt.Blob)) {
			t.run(ctx)
		} else {
			t := t // only a handed-off task moves to the heap
			g.Go(func() { t.run(ctx) })
		}
	}
	sec, err = src.Next(SectionLossless)
	if err != nil {
		return fail(err)
	}
	streamBytes += len(sec)
	// Nothing is left to read, so the caller decodes the partition itself
	// while the tensor tasks finish.
	if metaErr = ctx.Err(); metaErr == nil {
		t0 := time.Now()
		d.Meta, metaErr = decodeLossless(codec, sec)
		decodeWork.Add(int64(time.Since(t0)))
	}
	src.Release(sec)
	g.Wait()
	err = ctx.Err()
	if err == nil {
		err = metaErr
	}
	for i := range d.Tensors {
		if err == nil {
			err = d.Tensors[i].err
		}
	}
	metaBytes := 0
	if err == nil {
		metaBytes, err = d.validate()
	}
	if err != nil {
		return fail(err)
	}

	elapsed := time.Since(start)
	stats := &DecompressStats{
		DecompressTime:  elapsed,
		ReadWait:        src.ReadWait(),
		DecodeWork:      time.Duration(decodeWork.Load()),
		BytesRecycled:   sched.RecycledBytes() - recycled0,
		DeltaTensors:    nDelta,
		ChunkedTensors:  nChunked,
		RawBytes:        4*elems + metaBytes,
		CompressedBytes: streamBytes,
	}
	st.decode.Observe(elapsed.Seconds())
	st.ratio.Observe(stats.Ratio())
	return d, stats, nil
}
