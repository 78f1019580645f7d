// Package wire defines the length-framed, CRC-checked transport encoding
// that carries FedSZ streams over sockets.
//
// A wire stream is a fixed preamble followed by a sequence of frames:
//
//	Stream   := magic(u32 "FWR1") version(u8) Frame* TrailerFrame
//	Frame    := kind(u8) payloadLen(u32) payload crc(u32)
//
// All integers are little-endian. Each frame's crc is CRC-32 (IEEE) over
// kind, payloadLen, and payload, so corruption is caught frame-by-frame —
// before a damaged payload ever reaches the decoder. Frame kinds mirror
// the FedSZ stream's sections, as core.Sections splits a stream:
//
//	FrameHeader   — the stream preamble through the path flags
//	FrameTensor   — one lossy tensor: name, kind, shape, compressed blob
//	FrameLossless — the lossless-partition section
//	FrameTrailer  — frame count, total payload bytes, whole-stream CRC
//
// The payload concatenation of the header/tensor/lossless frames is
// byte-for-byte the in-memory FedSZ stream, and each frame is one section
// of it, so SectionSource hands frames to core.DecodeSections as they
// arrive: the receiver decodes tensor i while frame i+1 is still crossing
// the network. This framing is the one way a FedSZ stream crosses an
// io.Reader/io.Writer boundary; Reader reassembles the plain stream for
// callers that want its bytes. The trailer carries a redundant whole-stream
// CRC and byte/frame counts, so truncation at a frame boundary — which
// per-frame CRCs cannot see — is also detected.
//
// Framing at tensor granularity (rather than one giant frame) is what
// bounds receiver memory: a conforming receiver needs one frame plus the
// decode in flight, never the whole update.
package wire

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// Frame kinds: a section's frame kind is its core.SectionKind.
const (
	FrameHeader   = byte(core.SectionHeader)
	FrameTensor   = byte(core.SectionTensor)
	FrameLossless = byte(core.SectionLossless)
	FrameTrailer  = 0x04
)

const (
	streamMagic   = 0x46575231 // "FWR1"
	streamVersion = 1

	frameHeaderLen = 5  // kind + payloadLen
	trailerLen     = 16 // frames(u32) + payloadBytes(u64) + streamCRC(u32)

	// maxFramePayload bounds a declared frame length. Receive buffers grow
	// with bytes actually received (sched.ReadFullPooled), so this is a
	// sanity cap, not an allocation bound.
	maxFramePayload = 1 << 30
)

// corruptf wraps a framing violation as core.ErrCorrupt so transport and
// codec corruption surface through one sentinel.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: wire: %s", core.ErrCorrupt, fmt.Sprintf(format, args...))
}

// Writer emits a wire stream onto w. Frames may be written directly with
// WriteFrame, or a whole FedSZ stream at once with WriteStream. Close
// writes the trailer; a stream without its trailer is corrupt by
// definition, so senders must Close on success and just drop the
// connection on failure.
type Writer struct {
	w            io.Writer
	started      bool
	closed       bool
	frames       uint32
	payloadBytes uint64
	streamCRC    uint32
	scratch      []byte
	// The fixed-size fields are assembled here rather than on the stack,
	// where passing them to the io.Writer or the CRC would move them to the
	// heap per frame.
	pre     [5]byte
	hdr     [frameHeaderLen]byte
	trailer [trailerLen]byte
}

// NewWriter returns a Writer emitting to w. Callers writing to an
// unbuffered destination (e.g. a net.Conn) should wrap it in a
// bufio.Writer and flush after Close.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteFrame emits one frame. The preamble is written before the first
// frame.
func (w *Writer) WriteFrame(kind byte, payload []byte) error {
	if w.closed {
		return fmt.Errorf("wire: write after Close")
	}
	if len(payload) > maxFramePayload {
		return fmt.Errorf("wire: frame payload %d exceeds limit", len(payload))
	}
	if !w.started {
		binary.LittleEndian.PutUint32(w.pre[:], streamMagic)
		w.pre[4] = streamVersion
		if _, err := w.w.Write(w.pre[:]); err != nil {
			return fmt.Errorf("wire: preamble: %w", err)
		}
		w.started = true
	}
	t0 := time.Now()
	hdr := &w.hdr
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)

	// One Write per frame: header + payload + crc assembled in a reused
	// scratch buffer, so small frames do not cost three syscalls each.
	need := frameHeaderLen + len(payload) + 4
	if cap(w.scratch) < need {
		w.scratch = make([]byte, 0, need)
	}
	buf := w.scratch[:0]
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	w.scratch = buf[:0]
	core.FrameTimers.Encode.Observe(time.Since(t0).Seconds())
	if _, err := w.w.Write(buf); err != nil {
		return fmt.Errorf("wire: frame: %w", err)
	}
	if kind != FrameTrailer {
		w.frames++
		w.payloadBytes += uint64(len(payload))
		w.streamCRC = crc32.Update(w.streamCRC, crc32.IEEETable, payload)
	}
	return nil
}

// Close writes the trailer frame. It does not close the underlying writer.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	payload := &w.trailer
	binary.LittleEndian.PutUint32(payload[0:], w.frames)
	binary.LittleEndian.PutUint64(payload[4:], w.payloadBytes)
	binary.LittleEndian.PutUint32(payload[12:], w.streamCRC)
	if err := w.WriteFrame(FrameTrailer, payload[:]); err != nil {
		return err
	}
	w.closed = true
	return nil
}

// WriteSection frames one section of core's incremental encoder
// (CompressSections emit callback) as a frame of the section's kind, so
// compressing straight into a wire.Writer produces exactly the frames
// WriteStream emits for the buffered stream — without the sender ever
// materializing that stream. The caller must Close the writer after a
// successful encode (and drop the connection on failure).
func (w *Writer) WriteSection(kind core.SectionKind, payload []byte) error {
	if kind < core.SectionHeader || kind > core.SectionLossless {
		return fmt.Errorf("wire: unknown section kind %d", kind)
	}
	return w.WriteFrame(byte(kind), payload)
}

// WriteStream frames a complete serialized FedSZ stream — one header
// frame, one frame per lossy tensor, one lossless frame — and closes with
// the trailer. The receiver-side payload concatenation reproduces stream
// exactly.
func (w *Writer) WriteStream(stream []byte) error {
	secs, err := core.Sections(stream)
	if err != nil {
		return fmt.Errorf("wire: split stream: %w", err)
	}
	if err := w.WriteSection(core.SectionHeader, secs.Header); err != nil {
		return err
	}
	for _, ts := range secs.Tensors {
		if err := w.WriteSection(core.SectionTensor, ts); err != nil {
			return err
		}
	}
	if err := w.WriteSection(core.SectionLossless, secs.Lossless); err != nil {
		return err
	}
	return w.Close()
}

// EncodeStream compresses sd straight into wire frames on w — the
// sender-side mirror of SectionSource — and closes the stream with the
// trailer on success. Each finished tensor section ships while later
// tensors are still compressing on pool, so a throttled uplink overlaps the
// encode instead of waiting for it. The framing it wrote, preamble, frame
// headers, CRCs and trailer, counts as fedsz_encode_bytes_total's frames.
func EncodeStream(ctx context.Context, pool *sched.Pool, w *Writer, sd *tensor.StateDict, opts core.Options) (*core.Stats, error) {
	stats, err := core.CompressSections(ctx, pool, sd, opts, w.WriteSection)
	if err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	core.CountFrameBytes(opts, len(w.pre)+int(w.frames+1)*(frameHeaderLen+4)+trailerLen)
	return stats, nil
}

// FrameScanner reads a wire stream frame by frame: each Next returns one
// verified payload-bearing frame, and the terminal io.EOF means the
// trailer's stream-level CRC and counts checked out. This is the layer an
// ingest front-end routes on — frames can be dispatched to independent
// decoders without ever reassembling the full stream. SectionSource and
// Reader are the section and io.Reader views built on top of it.
type FrameScanner struct {
	r            io.Reader
	started      bool
	done         bool
	frames       uint32
	payloadBytes uint64
	streamCRC    uint32
	// readWait sums each frame's reads, its first byte through its CRC.
	readWait time.Duration
	// The fixed-size reads land here rather than on Next's stack, where
	// passing them to the io.Reader would move them to the heap per frame.
	pre    [5]byte
	hdr    [frameHeaderLen]byte
	crcBuf [4]byte
}

// Frames returns the number of payload-bearing frames consumed so far.
func (s *FrameScanner) Frames() int { return int(s.frames) }

// WireBytes returns the encoded length of the wire stream consumed so far
// — preamble, frame headers, payloads, CRCs, and (once verified) the
// trailer frame. After the final io.EOF this is exactly the byte count
// the stream occupied on the wire, independent of how the underlying
// reader buffered — the accounting a multi-update connection needs, where
// read-ahead may already hold the next stream's bytes.
func (s *FrameScanner) WireBytes() int64 {
	n := int64(frameHeaderLen+4)*int64(s.frames) + int64(s.payloadBytes)
	if s.started {
		n += 5 // preamble
	}
	if s.done {
		n += frameHeaderLen + trailerLen + 4
	}
	return n
}

func (s *FrameScanner) readFull(buf []byte, context string) error {
	if _, err := io.ReadFull(s.r, buf); err != nil {
		return corruptf("%s: %v", context, err)
	}
	return nil
}

// Next reads and verifies the next frame. It returns the frame kind and
// its payload in a pooled buffer whose ownership transfers to the caller —
// release it with sched.PutBytes when done. After the trailer verifies,
// Next returns io.EOF (the trailer payload itself is consumed internally).
// All framing violations wrap core.ErrCorrupt; a scanner that returned an
// error must not be used again.
func (s *FrameScanner) Next() (byte, []byte, error) {
	if s.done {
		return 0, nil, io.EOF
	}
	// One clock pair times the frame's reads, another its CRC check.
	t0 := time.Now()
	if !s.started {
		pre := &s.pre
		if err := s.readFull(pre[:], "preamble"); err != nil {
			return 0, nil, err
		}
		if binary.LittleEndian.Uint32(pre[:]) != streamMagic {
			return 0, nil, corruptf("bad magic")
		}
		if pre[4] != streamVersion {
			return 0, nil, corruptf("unsupported version %d", pre[4])
		}
		s.started = true
	}
	hdr := &s.hdr
	if err := s.readFull(hdr[:], "frame header"); err != nil {
		return 0, nil, err
	}
	kind := hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxFramePayload {
		return 0, nil, corruptf("frame payload %d exceeds limit", n)
	}
	switch kind {
	case FrameHeader, FrameTensor, FrameLossless:
		if s.frames == 0 && kind != FrameHeader {
			return 0, nil, corruptf("first frame kind 0x%02x, want header", kind)
		}
	case FrameTrailer:
		if n != trailerLen {
			return 0, nil, corruptf("trailer payload %d bytes, want %d", n, trailerLen)
		}
	default:
		return 0, nil, corruptf("unknown frame kind 0x%02x", kind)
	}

	// Receive the payload into a pooled buffer that grows with the bytes
	// actually received, so a hostile length cannot force a large
	// allocation up front.
	want := int(n)
	buf, err := sched.ReadFullPooled(s.r, want)
	if err != nil {
		return 0, nil, corruptf("frame payload: %v", err)
	}
	crcBuf := &s.crcBuf
	if err := s.readFull(crcBuf[:], "frame crc"); err != nil {
		sched.PutBytes(buf)
		return 0, nil, err
	}
	t1 := time.Now()
	s.readWait += t1.Sub(t0)
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, buf)
	core.FrameTimers.Decode.Observe(time.Since(t1).Seconds())
	if crc != binary.LittleEndian.Uint32(crcBuf[:]) {
		sched.PutBytes(buf)
		return 0, nil, corruptf("frame crc mismatch (kind 0x%02x, %d bytes)", kind, want)
	}

	if kind == FrameTrailer {
		frames := binary.LittleEndian.Uint32(buf[0:])
		payloadBytes := binary.LittleEndian.Uint64(buf[4:])
		streamCRC := binary.LittleEndian.Uint32(buf[12:])
		sched.PutBytes(buf)
		if frames != s.frames {
			return 0, nil, corruptf("trailer frame count %d, received %d", frames, s.frames)
		}
		if payloadBytes != s.payloadBytes {
			return 0, nil, corruptf("trailer payload bytes %d, received %d", payloadBytes, s.payloadBytes)
		}
		if streamCRC != s.streamCRC {
			return 0, nil, corruptf("stream crc mismatch")
		}
		s.done = true
		return 0, nil, io.EOF
	}
	s.frames++
	s.payloadBytes += uint64(want)
	s.streamCRC = crc32.Update(s.streamCRC, crc32.IEEETable, buf)
	return kind, buf, nil
}

// SectionSource feeds a wire stream's frames to core.DecodeSections: each
// payload-bearing frame is one section, handed over in its pooled receive
// buffer as soon as its CRC checks out, so tensor i decodes while frame i+1
// is still crossing the network. The metadata section — the last one — is
// surfaced only after the trailer behind it has verified, so a decode that
// completes has consumed an intact wire stream through its final byte.
type SectionSource struct {
	sc FrameScanner
	cr ctxReader
}

// NewSectionSource returns a SectionSource de-framing one wire stream from
// r; reads fail once ctx is cancelled.
func NewSectionSource(ctx context.Context, r io.Reader) *SectionSource {
	s := &SectionSource{cr: ctxReader{r: r, ctx: ctx}}
	s.sc.r = &s.cr
	return s
}

// ctxReader aborts promptly once the decode's context is cancelled: each
// Read checks the context first, so cancellation takes effect at the next
// read even mid-frame. (A Read already blocked on a dead socket is the
// transport layer's problem — flserve bounds those with read deadlines.)
type ctxReader struct {
	r   io.Reader
	ctx context.Context
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// Next implements core.SectionSource. A section arrives as a frame of its
// kind; a frame of any other kind, or the stream ending early, is
// corruption.
func (s *SectionSource) Next(kind core.SectionKind) ([]byte, error) {
	fk, payload, err := s.sc.Next()
	if err == io.EOF {
		return nil, corruptf("stream ended before section kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	if fk != byte(kind) {
		sched.PutBytes(payload)
		return nil, corruptf("frame kind 0x%02x, want 0x%02x", fk, byte(kind))
	}
	if kind == core.SectionLossless {
		if _, extra, err := s.sc.Next(); err != io.EOF {
			sched.PutBytes(extra)
			sched.PutBytes(payload)
			if err == nil {
				err = corruptf("frames after the metadata section")
			}
			return nil, err
		}
	}
	return payload, nil
}

// Release implements core.SectionSource.
func (*SectionSource) Release(section []byte) { sched.PutBytes(section) }

// ReadWait implements core.SectionSource: the time spent reading frames,
// each timed from its first byte through its CRC — the "waiting for the
// network" component of a streaming decode.
func (s *SectionSource) ReadWait() time.Duration { return s.sc.readWait }

// WireBytes returns the encoded length of the wire stream consumed so far;
// see FrameScanner.WireBytes.
func (s *SectionSource) WireBytes() int64 { return s.sc.WireBytes() }

// Reader de-frames a wire stream from r, implementing io.Reader over the
// reassembled payload byte sequence (the FedSZ stream). Every frame's CRC
// is verified before any of its bytes are surfaced, and the trailer's
// stream-level CRC and counts are verified before the final io.EOF, so a
// caller that reaches io.EOF has read an intact stream. All framing
// violations wrap core.ErrCorrupt.
type Reader struct {
	s    FrameScanner
	done bool
	err  error
	buf  []byte // current frame payload (pooled)
	off  int
}

// NewReader returns a Reader de-framing from r.
func NewReader(r io.Reader) *Reader { return &Reader{s: FrameScanner{r: r}} }

// Frames returns the number of payload-bearing frames consumed so far.
func (r *Reader) Frames() int { return r.s.Frames() }

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	for {
		if r.err != nil {
			return 0, r.err
		}
		if r.off < len(r.buf) {
			n := copy(p, r.buf[r.off:])
			r.off += n
			return n, nil
		}
		if r.done {
			return 0, io.EOF
		}
		sched.PutBytes(r.buf)
		r.buf, r.off = nil, 0
		_, buf, err := r.s.Next()
		if err == io.EOF {
			r.done = true
			continue
		}
		if err != nil {
			r.fail(err)
			return 0, err
		}
		r.buf = buf
		if len(p) == 0 {
			return 0, nil
		}
	}
}

// fail records a terminal error and releases the receive buffer.
func (r *Reader) fail(err error) {
	r.err = err
	sched.PutBytes(r.buf)
	r.buf, r.off = nil, 0
}

// Close releases the Reader's receive buffer. Reading after Close returns
// the terminal state. It does not close the underlying reader.
func (r *Reader) Close() {
	if r.err == nil {
		r.fail(io.ErrClosedPipe)
		if r.done {
			r.err = io.EOF
		}
	}
}
