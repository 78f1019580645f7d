package flserve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// ErrRejected marks a server-side rejection: the server received the
// update and refused it (a protocol, decode or verification failure). It is
// distinct from a transport failure — the client's retry loop re-dials
// transport failures but never retries a rejection.
var ErrRejected = errors.New("flserve: server rejected update")

// ErrShed marks an admission-control shed: the server was over its queue
// depth and declined the connection before looking at the update. Unlike
// a rejection, a shed is retryable by definition — nothing about the
// update was judged — and the client's retry loop honours the server's
// retry-after hint. Match with errors.Is(err, ErrShed); the concrete
// *ShedError carries the hint.
var ErrShed = errors.New("flserve: server shed connection (overloaded)")

// ShedError is the typed form of a shed ack.
type ShedError struct {
	// RetryAfter is the server's suggested backoff before re-dialing.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("flserve: server shed connection (overloaded), retry after %v", e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrShed) true.
func (e *ShedError) Unwrap() error { return ErrShed }

// Client uploads FedSZ-compressed updates to an aggregation server.
type Client struct {
	// Addr is the server's TCP address.
	Addr string
	// Link optionally shapes the uplink to a constrained bandwidth (the
	// paper's 10 Mbps edge setting); the zero value uploads unthrottled.
	Link netsim.Link
	// Retries is how many extra attempts a failed upload gets, re-dialing
	// each time with doubling backoff. Only transport failures retry; a
	// server rejection (ErrRejected) returns immediately. Delivery is
	// at-least-once: an ack lost after the server folded the update makes
	// the retry a duplicate, which the server's Ingestor must tolerate or
	// deduplicate by client ID.
	Retries int
	// RetryBackoff is the first retry delay (0 selects 50 ms); it doubles
	// per attempt.
	RetryBackoff time.Duration
}

// errSessionClosed is what an upload on a closed Session returns.
var errSessionClosed = errors.New("flserve: session closed")

// writerPool recycles the sessions' 64 KiB write buffers: a client that
// dials once per update would otherwise allocate one per update.
var writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// Session is one dialed connection to an aggregation server carrying any
// number of updates — the multi-update protocol that amortizes dial and
// prelude cost across a round. Upload and UploadState may be called
// repeatedly (not concurrently); each waits for the server's per-update
// ack. Close the session when the round is done.
type Session struct {
	conn net.Conn
	// mu orders the uploads against Close, which recycles bw: an upload holds
	// it throughout, and bw is nil once the session is closed.
	mu sync.Mutex
	bw *bufio.Writer
	// deltaAccepted records the server's answer to an FLS2 negotiation:
	// true means uploads on this session may carry residual (v3) streams
	// encoded against the negotiated reference epoch.
	deltaAccepted bool
	// weighted marks an FLS3 session: each update record carries a weight.
	weighted bool
}

// DeltaAccepted reports whether the server agreed to decode residual (v3)
// streams on this session; always false for plain Dial sessions. When
// false, upload absolute streams — the server does not hold the reference
// this client wanted to encode against.
func (s *Session) DeltaAccepted() bool { return s.deltaAccepted }

// dial connects to c.Addr, honouring ctx for the connection attempt, and
// writes the connection prelude: the magic, then for FLS2 the proposed
// reference epoch. An FLS1 or FLS3 prelude stays buffered until the first
// upload flushes it; an FLS2 prelude is flushed and negotiated here.
func (c *Client) dial(ctx context.Context, magic, epoch uint32) (*Session, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.Addr)
	if err != nil {
		return nil, fmt.Errorf("flserve: dial %s: %w", c.Addr, err)
	}
	var dst io.Writer = conn
	if c.Link.BandwidthMbps > 0 {
		dst = c.Link.ThrottleWriter(conn)
	}
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(dst)
	s := &Session{conn: conn, bw: bw, weighted: magic == connMagicWeighted}
	pre := binary.LittleEndian.AppendUint32(bw.AvailableBuffer(), magic)
	if magic == connMagicDelta {
		pre = binary.LittleEndian.AppendUint32(pre, epoch)
	}
	if _, err = bw.Write(pre); err != nil {
		err = fmt.Errorf("flserve: session prelude: %w", err)
	} else if magic == connMagicDelta {
		err = s.negotiate(ctx)
	}
	if err != nil {
		s.Close()
		return nil, ctxErr(ctx, err)
	}
	return s, nil
}

// Dial opens a session to c.Addr, honouring ctx for the connection
// attempt, and sends the protocol magic (buffered until the first upload).
func (c *Client) Dial(ctx context.Context) (*Session, error) {
	return c.dial(ctx, connMagic, 0)
}

// DialDelta opens a session that negotiates cross-round delta uploads: the
// FLS2 prelude proposes the client's reference epoch, and the server's
// one-byte answer (exposed as Session.DeltaAccepted) says whether residual
// (v3) streams encoded against that epoch will decode there. Refusal is not
// an error — the session is live either way; the caller just uploads
// absolute streams. The negotiation costs one round trip, paid once per
// session, not per update.
func (c *Client) DialDelta(ctx context.Context, epoch uint32) (*Session, error) {
	return c.dial(ctx, connMagicDelta, epoch)
}

// negotiate flushes a fresh FLS2 session's prelude — the server answers it
// before reading any update — and records the answer in deltaAccepted.
func (s *Session) negotiate(ctx context.Context) error {
	defer s.arm(ctx)()
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("flserve: session prelude: %w", err)
	}
	var accept [1]byte
	if _, err := io.ReadFull(s.conn, accept[:]); err != nil {
		return fmt.Errorf("flserve: delta negotiation: %w", err)
	}
	if accept[0] == ackShed {
		// The server shed the connection before negotiating; surface the
		// typed retryable error with its hint.
		return readShed(s.conn)
	}
	s.deltaAccepted = accept[0] == 1
	return nil
}

// Close ends the session and recycles its write buffer; an upload on the
// session afterwards returns an error. The server sees a clean EOF at the
// update boundary and finishes the connection without a rejection.
func (s *Session) Close() error {
	// Closing the connection first cuts short an upload still writing or
	// waiting for its ack, which then lets go of bw.
	err := s.conn.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bw != nil {
		s.bw.Reset(nil)
		writerPool.Put(s.bw)
		s.bw = nil
	}
	return err
}

// arm wires ctx into the connection: the ctx deadline (if any) becomes the
// conn deadline, and a cancellation cuts the conn immediately so blocked
// reads and writes return. The returned stop must be called when the
// operation finishes.
func (s *Session) arm(ctx context.Context) func() {
	if d, ok := ctx.Deadline(); ok {
		s.conn.SetDeadline(d) //nolint:errcheck — a dead conn fails the next I/O anyway
	} else {
		s.conn.SetDeadline(time.Time{}) //nolint:errcheck
	}
	if ctx.Done() == nil {
		return func() {}
	}
	stop := context.AfterFunc(ctx, func() {
		s.conn.SetDeadline(time.Unix(1, 0)) //nolint:errcheck — unblocks in-flight I/O
	})
	return func() { stop() }
}

// ctxErr prefers the context's error over the I/O failure it induced.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// Upload sends one pre-compressed update (a serialized FedSZ stream) under
// the given client ID and waits for the server's ack: a nil return means
// the server decoded and folded the update.
func (s *Session) Upload(ctx context.Context, clientID uint32, stream []byte) error {
	return s.send(ctx, clientID, 1, func(w *wire.Writer) error { return w.WriteStream(stream) })
}

// UploadState compresses sd straight into the session's wire framer — the
// header and each finished tensor section hit the socket while later
// tensors are still compressing on pool (nil compresses serially) — so the
// upload overlaps the encode with no intermediate whole-stream buffer. The
// returned stats carry the encode timings, including WriteWait and
// EncodeOverlapRatio for the overlap actually achieved.
func (s *Session) UploadState(ctx context.Context, clientID uint32, sd *tensor.StateDict, opts core.Options, pool *sched.Pool) (*core.Stats, error) {
	var stats *core.Stats
	err := s.send(ctx, clientID, 1, func(w *wire.Writer) (err error) {
		stats, err = wire.EncodeStream(ctx, pool, w, sd, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// send is every upload: the update record — the client ID, then on an FLS3
// session the weight — and the wire stream body writes, flushed, then the
// server's ack.
func (s *Session) send(ctx context.Context, clientID uint32, weight float64, body func(*wire.Writer) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bw == nil {
		return errSessionClosed
	}
	defer s.arm(ctx)()
	rec := binary.LittleEndian.AppendUint32(s.bw.AvailableBuffer(), clientID)
	if s.weighted {
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(weight))
	}
	_, err := s.bw.Write(rec)
	if err == nil {
		err = body(wire.NewWriter(s.bw))
	}
	if err == nil {
		err = s.bw.Flush()
	}
	if err != nil {
		return ctxErr(ctx, fmt.Errorf("flserve: upload: %w", err))
	}
	if err := readAck(s.conn); err != nil {
		return ctxErr(ctx, err)
	}
	return nil
}

// Upload dials, sends one update, and waits for the ack, retrying
// transport failures per the client's Retries/RetryBackoff policy.
func (c *Client) Upload(ctx context.Context, clientID uint32, stream []byte) error {
	return c.once(ctx, connMagic, func(ctx context.Context, s *Session) error {
		return s.Upload(ctx, clientID, stream)
	})
}

// UploadState dials and streams the compression of sd straight into the
// socket (see Session.UploadState), retrying transport failures. On a
// retry the state dict is re-encoded from scratch — nothing buffered from
// the failed attempt is reused.
func (c *Client) UploadState(ctx context.Context, clientID uint32, sd *tensor.StateDict, opts core.Options, pool *sched.Pool) (*core.Stats, error) {
	var stats *core.Stats
	err := c.once(ctx, connMagic, func(ctx context.Context, s *Session) (err error) {
		stats, err = s.UploadState(ctx, clientID, sd, opts, pool)
		return err
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// UploadWeighted is UploadState over a weighted (FLS3) connection: the
// update declares an explicit aggregation weight, so an edge aggregator
// forwarding the fused mean of n clients uploads it at weight n and the
// upstream fold counts it as n clients' worth. Retries re-encode sd from
// scratch, as UploadState's do.
func (c *Client) UploadWeighted(ctx context.Context, clientID uint32, weight float64, sd *tensor.StateDict, opts core.Options, pool *sched.Pool) error {
	return c.once(ctx, connMagicWeighted, func(ctx context.Context, s *Session) error {
		return s.send(ctx, clientID, weight, func(w *wire.Writer) error {
			_, err := wire.EncodeStream(ctx, pool, w, sd, opts)
			return err
		})
	})
}

// once runs up on a fresh session opened with magic, closing it after, and
// re-dials transport failures and sheds up to Retries times with doubling
// backoff. Context cancellation and server rejections end the loop
// immediately; the caller's context is the only bound on an upload.
func (c *Client) once(ctx context.Context, magic uint32, up func(context.Context, *Session) error) error {
	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	for try := 0; ; try++ {
		s, err := c.dial(ctx, magic, 0)
		if err == nil {
			err = up(ctx, s)
			s.Close()
		}
		if err == nil || errors.Is(err, ErrRejected) || ctx.Err() != nil || try >= c.Retries {
			return err
		}
		wait := backoff
		// A shed carries the server's own backoff suggestion; never retry
		// sooner than the server asked.
		var shed *ShedError
		if errors.As(err, &shed) && shed.RetryAfter > wait {
			wait = shed.RetryAfter
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
		backoff *= 2
	}
}

func readAck(conn net.Conn) error {
	var status [1]byte
	if _, err := io.ReadFull(conn, status[:]); err != nil {
		return fmt.Errorf("flserve: reading ack: %w", err)
	}
	switch status[0] {
	case ackAccepted:
		return nil
	case ackShed:
		return readShed(conn)
	}
	var msgLen [2]byte
	if _, err := io.ReadFull(conn, msgLen[:]); err != nil {
		return ErrRejected
	}
	msg := make([]byte, binary.LittleEndian.Uint16(msgLen[:]))
	if _, err := io.ReadFull(conn, msg); err != nil {
		return ErrRejected
	}
	return fmt.Errorf("%w: %s", ErrRejected, msg)
}

// readShed reads what follows a shed status byte — the server's retry-after
// hint in milliseconds — into the typed retryable error; the hint stays zero
// when the connection ends before it arrives.
func readShed(conn net.Conn) *ShedError {
	var hint [2]byte
	if _, err := io.ReadFull(conn, hint[:]); err != nil {
		return &ShedError{}
	}
	return &ShedError{RetryAfter: time.Duration(binary.LittleEndian.Uint16(hint[:])) * time.Millisecond}
}
