// Package flserve implements the streaming side of the paper's
// aggregation-server scenario (Eqn 1, Figures 6–9): a TCP server that
// ingests many concurrent FedSZ-compressed client updates, decoding each
// tensor while the next is still crossing the network, and folding
// finished updates incrementally into a FedAvg accumulator.
//
// # Connection protocol
//
// This is the protocol's one full statement; README points here. A
// connection opens with a prelude and then carries any number of updates —
// one wire stream each, acked individually — so a client (or a whole
// round's worth of clients multiplexed over one Session) pays the dial and
// prelude cost once. All integers are little-endian, the magics included:
// "FLS1" is the u32 0x464C5331, so its bytes on the wire are 31 53 4c 46.
//
//	client → server: prelude update*
//	prelude:         magic(u32 "FLS1")
//	               | magic(u32 "FLS2") epoch(u32)   server answers accept(u8)
//	               | magic(u32 "FLS3")
//	update:          clientID(u32) [weight(f64), FLS3 only] wireStream
//	server → client: ack per update, status(u8) first:
//	                 0 accepted
//	                 1 rejected  msgLen(u16) msg
//	                 2 shed      retryAfterMs(u16)
//
// The three preludes:
//
//   - FLS1 is the plain upload. Its first iteration is the historical
//     one-update-per-connection exchange, so old single-shot clients are
//     wire-compatible.
//   - FLS2 negotiates cross-round delta uploads: the server answers 1 when
//     Config.RefProvider holds the proposed epoch's reference (residual v3
//     streams will decode against it) and 0 otherwise (upload absolute
//     streams). The answer is flushed before any update is read, and a shed
//     ack may arrive in its place.
//   - FLS3 is the edge→root hop of a hierarchical topology: every update
//     carries the weight it folds at, which must be a positive, finite
//     float32 (anything else is rejected).
//
// wireStream is the internal/wire framing of a FedSZ stream. Each ack is
// written only after that update has been decoded, verified, and folded, so
// a successful Upload means the server has folded the update. A clean EOF
// where the next clientID would start ends the connection. A rejected update
// or prelude is acked with the reason and the connection dropped (stream
// synchronization is unreliable past a damaged frame); clients resume on a
// fresh dial. A shed ack comes from admission control before the connection
// is served (Config.QueueDepth) and is followed by the close.
//
// On the client every upload takes one path: dial writes the prelude,
// Session.send writes one update record and its stream and reads the ack,
// and the one-shot Client uploads wrap dial, send and Close in the retry
// loop.
//
// # One ingest path
//
// Every update takes the same route: the connection goroutine hands the
// update's framed bytes to the StreamIngestor set as Config.Ingestor, which
// runs the shared section pipeline (core.DecodeSections over
// wire.SectionSource: per-frame CRC verification, each tensor section
// decoded on a sched.Pool while the next frame is still crossing the
// network, trailer verified before anything is delivered) and folds the
// result. The aggregator is internal/agg.Sharded. Config.Ingestor is
// required; Config.Handler, when set, only observes each folded update
// (logging, counting) and cannot reject it: it has already folded.
//
// # Backpressure
//
//   - Config.MaxConns bounds concurrent connections: it is the number of
//     resident worker goroutines, so peak memory is O(MaxConns × frame)
//     plus in-flight decodes — never O(clients × model).
//   - When the decode pool is saturated, the connection goroutine decodes
//     inline instead of reading, which stops draining the socket and lets
//     TCP flow control push back on the sender.
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
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// The connection magics and ack status bytes of the package doc's grammar.
const (
	connMagic         = 0x464C5331 // "FLS1": plain updates
	connMagicDelta    = 0x464C5332 // "FLS2": epoch(u32) follows; the server answers accept(u8)
	connMagicWeighted = 0x464C5333 // "FLS3": each update record carries weight(f64)

	ackAccepted = 0
	ackRejected = 1 // msgLen(u16) msg follow
	// ackShed is admission control's reject-newest answer: a u16 retry-after
	// hint in milliseconds follows, so clients classify it as retryable
	// congestion, never as corruption.
	ackShed = 2

	// ackMsgLimit truncates error messages echoed to clients.
	ackMsgLimit = 512
)

// Update describes one folded client update, as Config.Handler observes it.
type Update struct {
	// Client is the ID the uploader sent in its connection prelude.
	Client uint32
	// Remote is the uploading connection's remote address — the attribute
	// that lets handler logs and trace events correlate an update with its
	// connection.
	Remote string
	// Weight is the update's aggregation weight: 1 for FLS1/FLS2 uploads,
	// the sender-declared population weight for FLS3 (an edge forwarding
	// the fused mean of n clients sends weight n). The Ingestor folds
	// weight-scaled sums and divides by the weight total.
	Weight float64
	// WireBytes counts the bytes this update occupied on the wire: its
	// share of the connection prelude, the clientID, and the full wire
	// stream (framing plus payload), computed from the de-framer's logical
	// counts so it stays exact on multi-update connections.
	WireBytes int64
	// Stats carries the streaming decode's timing, including ReadWait and
	// DecodeWork for overlap accounting.
	Stats core.DecompressStats
}

// Config tunes a Server.
type Config struct {
	// Parallel is ignored: the Ingestor brings its own decode pool.
	//
	// Deprecated: set the Ingestor's pool size instead.
	Parallel int
	// MaxConns bounds concurrently served connections (0 selects
	// 4×GOMAXPROCS): the server keeps that many resident workers.
	MaxConns int
	// QueueDepth switches admission control from accept-loop backpressure
	// to explicit load shedding: connections beyond the MaxConns serving
	// set wait in a bounded queue of this depth, and arrivals past the
	// queue are shed — acked with a retry-after hint and closed — instead
	// of piling into the listener backlog; at most MaxConns + QueueDepth
	// are admitted at once. 0 keeps the legacy discipline (a worker accepts
	// only when idle, so the kernel backlog absorbs bursts). Shedding makes
	// overload predictable: memory stays O(MaxConns + QueueDepth) and excess
	// clients learn to back off immediately rather than timing out in the
	// backlog.
	QueueDepth int
	// RetryAfterHint is the backoff the shed ack suggests to clients
	// (0 selects 100 ms; capped at ~65 s by the wire field).
	RetryAfterHint time.Duration
	// Ingestor consumes each update's framed byte stream — decode and fold;
	// internal/agg.Sharded is the implementation. It is required.
	Ingestor StreamIngestor
	// Handler, when non-nil, is called with each update the Ingestor has
	// folded, before it is acked. It only observes (logging, counting): the
	// update carries no tensors, and it has already folded, so the ack
	// stays a success whatever the Handler does. It may be called
	// concurrently from different connections.
	Handler func(Update)
	// IdleTimeout bounds how long a connection may sit without delivering
	// a byte before it is dropped, so a stalled client cannot pin a
	// MaxConns slot forever (0 selects 2 minutes; negative disables). The
	// deadline is refreshed on every read, so slow-but-moving uploads are
	// unaffected.
	IdleTimeout time.Duration
	// UploadTimeout bounds one update end to end — clientID through ack —
	// regardless of how steadily it trickles in (0 disables). It becomes
	// the per-update context deadline: blocked reads are cut at the
	// deadline and in-flight decode workers for that update exit early.
	UploadTimeout time.Duration
	// Tracer, when non-nil, receives one span per connection, one event
	// per update and, as each connection ends, one event per pipeline stage
	// series with its totals so far — the per-connection timeline
	// complementing the aggregated metrics the server always keeps
	// (Snapshot, RegisterMetrics).
	Tracer *telemetry.Tracer
	// RefProvider resolves a delta client's negotiated reference epoch to
	// the retained reference state dict (nil when the server does not hold
	// that epoch — the client is then steered to absolute uploads). Leave
	// nil to refuse every delta negotiation; FLS1 connections never consult
	// it. The returned dict is read concurrently by in-flight decodes, so
	// the provider must not hand out a dict that is mutated while
	// connections are live (internal/delta.Ref.Provider retains a stable
	// copy per epoch).
	RefProvider func(epoch uint32) *tensor.StateDict
}

// StreamIngestor consumes one wire-framed update directly from the
// connection. Implementations must read the update's wire stream from r
// through its trailer (the server acks only on a nil return), fold it, and
// report the wire byte count plus decode stats for the server's
// accounting; r must not be read once IngestStream returns, since the
// server recycles its buffer. Calls arrive concurrently from different
// connections. An error rejects the update and drops the connection;
// corruption must surface as core.ErrCorrupt-wrapped errors and reference
// mismatches as core.ErrReference.
type StreamIngestor interface {
	IngestStream(ctx context.Context, client uint32, weight float64, dopts core.DecodeOptions, r io.Reader) (int64, core.DecompressStats, error)
}

// defaultIdleTimeout is Config.IdleTimeout's zero-value default.
const defaultIdleTimeout = 2 * time.Minute

// defaultRetryAfterHint is Config.RetryAfterHint's zero-value default.
const defaultRetryAfterHint = 100 * time.Millisecond

// readerPool recycles the connections' 32 KiB read buffers: a client that
// dials once per update would otherwise cost the server one per update.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 32<<10) }}

// Stats aggregates what a Server has ingested so far. Obtain one from
// Server.Snapshot (safe to call while connections are live).
type Stats struct {
	// Updates counts updates decoded, verified and folded by the Ingestor.
	Updates int
	// Rejected counts connections that failed the protocol, and updates that
	// failed decode or verification.
	Rejected int
	// Shed counts connections refused by admission control (QueueDepth
	// exceeded) — load the server declined, not failures.
	Shed int
	// WireBytes sums raw socket bytes across accepted updates.
	WireBytes int64
	// ReadWait, DecodeWork, and Wall sum the corresponding per-update
	// decode timings (Wall is summed per-update wall clock — clientID
	// through handler return — not server uptime).
	ReadWait   time.Duration
	DecodeWork time.Duration
	Wall       time.Duration
	// BytesRecycled sums each accepted update's decode-side pool recycling
	// (see core.DecompressStats.BytesRecycled) — the observable that the
	// ingest path is running its steady-state zero-alloc loop.
	BytesRecycled uint64
}

// OverlapRatio reports the fraction of decode work hidden behind reading
// (and other tensors' decodes), aggregated over all ingested updates — the
// pipelining payoff: 0 means receive-then-decode, 1 means decode fully
// overlapped with receive.
func (s Stats) OverlapRatio() float64 {
	sum := core.DecompressStats{ReadWait: s.ReadWait, DecodeWork: s.DecodeWork, DecompressTime: s.Wall}
	return sum.OverlapRatio()
}

// Server is a streaming FedSZ aggregation server.
type Server struct {
	cfg Config
	ln  net.Listener
	// queue is the bounded admission queue (QueueDepth > 0 only): the
	// accept loop enqueues, the MaxConns workers dequeue, and an arrival
	// finding the queue full is shed.
	queue chan net.Conn
	wg    sync.WaitGroup

	closed atomic.Bool

	// m is the one set of ingest counters: every field is atomic, so
	// Snapshot and a /metrics scrape (RegisterMetrics) read the same values
	// without contending with — or racing — the per-connection goroutines
	// updating them.
	m serverMetrics
}

// Listen starts a server on a TCP address ("127.0.0.1:0" picks a free
// port; Addr reports it).
func Listen(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("flserve: %w", err)
	}
	return Serve(ln, cfg), nil
}

// Serve starts a server on an existing listener and takes ownership of it.
func Serve(ln net.Listener, cfg Config) *Server {
	if cfg.Ingestor == nil {
		panic("flserve: Config.Ingestor is required")
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 4 * runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.IdleTimeout == 0:
		cfg.IdleTimeout = defaultIdleTimeout
	case cfg.IdleTimeout < 0:
		cfg.IdleTimeout = 0
	}
	if cfg.RetryAfterHint <= 0 {
		cfg.RetryAfterHint = defaultRetryAfterHint
	}
	s := &Server{cfg: cfg, ln: ln}
	s.m.wireHist = telemetry.NewHistogram(telemetry.ByteBuckets)
	s.m.decodeHist = telemetry.NewHistogram(telemetry.DurationBuckets)
	s.m.overlapHist = telemetry.NewHistogram(telemetry.RatioBuckets)
	worker := s.acceptLoop
	if cfg.QueueDepth > 0 {
		s.queue = make(chan net.Conn, cfg.QueueDepth)
		worker = s.queueWorker
		s.wg.Add(1)
		go s.shedAcceptLoop()
	}
	s.wg.Add(cfg.MaxConns)
	for range cfg.MaxConns {
		go worker()
	}
	return s
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Snapshot returns a point-in-time copy of the ingest counters. Every
// field is read atomically, so calling it while connections are live —
// the situation of a /metrics scrape against a serving process — is
// race-free; the fields are not one consistent cut (an update folding
// mid-read may be counted in Updates but not yet in WireBytes), which a
// monitoring read tolerates by construction.
func (s *Server) Snapshot() Stats {
	m := &s.m
	return Stats{
		Updates:       int(m.updates.Value()),
		Rejected:      int(m.connsRejected.Value() + m.rejected()),
		Shed:          int(m.shed.Value()),
		WireBytes:     int64(m.wireBytes.Value()),
		ReadWait:      time.Duration(m.readWaitNS.Value()),
		DecodeWork:    time.Duration(m.decodeWorkNS.Value()),
		Wall:          time.Duration(m.wallNS.Value()),
		BytesRecycled: m.bytesRecycled.Value(),
	}
}

// Close stops accepting, waits for in-flight connections to finish, and
// returns the listener's close error, if any.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		s.wg.Wait()
		return nil
	}
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) isClosed() bool { return s.closed.Load() }

// acceptLoop is a resident worker of the QueueDepth == 0 policy: it
// accepts only when idle, so the listener's backlog — not server memory —
// absorbs bursts beyond MaxConns, and its grown stack serves connection
// after connection.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (fd exhaustion, aborted handshake):
			// back off briefly instead of spinning on a persistent error.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		s.m.connsAccepted.Inc()
		s.serveConn(conn)
	}
}

// serveConn serves conn on the calling worker.
func (s *Server) serveConn(conn net.Conn) {
	s.m.connsActive.Inc()
	defer s.m.connsActive.Dec()
	s.handleConn(conn)
}

// shedAcceptLoop is the QueueDepth > 0 admission policy: accept eagerly,
// queue up to QueueDepth connections behind the MaxConns serving workers,
// and shed (reject-newest) everything beyond — the newest arrival is the
// one turned away, since the queued ones have already waited. Closing the
// listener ends the loop; the queue channel is then closed so the workers
// can drain and shed whatever was still waiting.
func (s *Server) shedAcceptLoop() {
	defer s.wg.Done()
	defer close(s.queue)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		s.m.connsAccepted.Inc()
		select {
		case s.queue <- conn:
			s.m.queueDepth.Inc()
		default:
			s.shedConn(conn)
		}
	}
}

// queueWorker is a resident worker of the QueueDepth > 0 policy. Once the
// accept loop has closed the queue, what is still queued is shed rather
// than served, so Close never strands a client.
func (s *Server) queueWorker() {
	defer s.wg.Done()
	for conn := range s.queue {
		s.m.queueDepth.Dec()
		if s.isClosed() {
			s.shedConn(conn)
			continue
		}
		s.serveConn(conn)
	}
}

// shedConn acks a shed — status byte 2 plus the retry-after hint in
// milliseconds — and closes the connection. The write races the client's
// own upload harmlessly: the client reads the ack when it next looks for
// one, and a client that never looks just sees the close.
func (s *Server) shedConn(conn net.Conn) {
	s.m.shed.Inc()
	ms := s.cfg.RetryAfterHint.Milliseconds()
	if ms > 65535 {
		ms = 65535
	}
	buf := [3]byte{ackShed}
	binary.LittleEndian.PutUint16(buf[1:], uint16(ms))
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	conn.Write(buf[:])                                     //nolint:errcheck — the close is the message of last resort
	conn.Close()
}

// timeoutKind classifies which bound cut a connection, for the
// fedsz_server_timeout_kills_total metric.
type timeoutKind uint8

const (
	timeoutNone timeoutKind = iota
	timeoutIdle
	timeoutUpload
)

// connReader refreshes the idle deadline before each read, so only a
// connection that stops delivering bytes for the whole timeout gets
// dropped. An update deadline, when set, caps every refresh so a
// trickling upload cannot outlive its UploadTimeout.
type connReader struct {
	conn     net.Conn
	idle     time.Duration
	deadline time.Time
	// timedOut records which bound was armed when a read failed with a
	// timeout — by the time the failure surfaces from the decoder the
	// net.Error has been flattened into a corruption message, so the
	// classification must be captured here at the Read.
	timedOut timeoutKind
}

func (c *connReader) Read(p []byte) (int, error) {
	var d time.Time
	armed := timeoutNone
	if c.idle > 0 {
		d = time.Now().Add(c.idle)
		armed = timeoutIdle
	}
	if !c.deadline.IsZero() && (d.IsZero() || c.deadline.Before(d)) {
		d = c.deadline
		armed = timeoutUpload
	}
	// A zero d clears the deadline an earlier update armed, so it cannot
	// cut a session that sits idle between updates.
	if err := c.conn.SetReadDeadline(d); err != nil {
		return 0, err
	}
	n, err := c.conn.Read(p)
	if err != nil {
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			c.timedOut = armed
		}
	}
	return n, err
}

// prelude is what a connection's opening bytes negotiated.
type prelude struct {
	// weighted marks FLS3: every update carries an 8-byte weight.
	weighted bool
	// dopts carries the FLS2-negotiated delta reference (zero when the
	// server does not hold the proposed epoch, and for FLS1/FLS3).
	dopts core.DecodeOptions
	// bytes counts the prelude itself, charged to the first update.
	bytes int64
}

// readPrelude reads the connection magic — FLS1, FLS2 or FLS3 — and, for
// FLS2, runs the delta negotiation: the client proposes a reference epoch;
// the server accepts only when RefProvider holds that exact baseline, else
// answers 0 and carries on — the client re-encodes absolute and the
// connection proceeds identically to FLS1.
func (s *Server) readPrelude(br *bufio.Reader, conn net.Conn) (prelude, error) {
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return prelude{}, fmt.Errorf("%w: connection magic: %v", core.ErrCorrupt, err)
	}
	p := prelude{bytes: 4}
	switch binary.LittleEndian.Uint32(buf[:4]) {
	case connMagic:
	case connMagicWeighted:
		p.weighted = true
	case connMagicDelta:
		if _, err := io.ReadFull(br, buf[4:]); err != nil {
			return prelude{}, fmt.Errorf("%w: delta epoch: %v", core.ErrCorrupt, err)
		}
		p.bytes = 8
		epoch := binary.LittleEndian.Uint32(buf[4:])
		var ref *tensor.StateDict
		if s.cfg.RefProvider != nil {
			ref = s.cfg.RefProvider(epoch)
		}
		accept := byte(0)
		if ref != nil {
			accept = 1
			p.dopts = core.DecodeOptions{Reference: ref, RefEpoch: epoch}
			s.m.deltaAccepted.Inc()
		} else {
			s.m.deltaRefused.Inc()
		}
		if _, err := conn.Write([]byte{accept}); err != nil {
			return prelude{}, fmt.Errorf("delta negotiation reply: %w", err)
		}
	default:
		return prelude{}, fmt.Errorf("%w: bad connection magic", core.ErrCorrupt)
	}
	return p, nil
}

// handleConn serves one connection's update loop: prelude once, then any
// number of [clientID, wire stream] updates, each acked after its ingest.
// The connection ends on a clean EOF at an update boundary, on any failed
// update (acked, then dropped), or on idle/upload timeout.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	remote := conn.RemoteAddr().String()
	m := &s.m
	updates, rejected := 0, 0
	span := s.cfg.Tracer.Span("conn", telemetry.A("remote", remote))
	defer func() {
		span.End(telemetry.A("updates", updates), telemetry.A("rejected", rejected))
		core.TraceStages(s.cfg.Tracer)
	}()
	cr := &connReader{conn: conn, idle: s.cfg.IdleTimeout}
	defer func() {
		// Whichever bound cut the connection is known only after the update
		// loop ends.
		switch cr.timedOut {
		case timeoutIdle:
			m.idleKills.Inc()
		case timeoutUpload:
			m.uploadKills.Inc()
		}
	}()
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(cr)
	defer func() {
		br.Reset(nil)
		readerPool.Put(br)
	}()
	// rejectConn accounts and acks a connection-level failure.
	rejectConn := func(err error) {
		rejected++
		m.connsRejected.Inc()
		writeAck(conn, err)
	}

	pre, err := s.readPrelude(br, conn)
	if err != nil {
		rejectConn(err)
		return
	}

	wireExtra := pre.bytes // update 1 carries the connection prelude in its WireBytes
	var rec [12]byte       // clientID, then the weight on FLS3 connections
	for {
		if _, err := io.ReadFull(br, rec[:4]); err != nil {
			if err != io.EOF {
				// Mid-record death (truncated ID, idle timeout): the peer did
				// not end the connection at an update boundary.
				rejectConn(fmt.Errorf("%w: update prelude: %v", core.ErrCorrupt, err))
			}
			return
		}
		u := Update{Client: binary.LittleEndian.Uint32(rec[:4]), Remote: remote, Weight: 1}
		wireExtra += 4
		if pre.weighted {
			if _, err := io.ReadFull(br, rec[4:]); err != nil {
				rejectConn(fmt.Errorf("%w: update weight: %v", core.ErrCorrupt, err))
				return
			}
			wireExtra += 8
			u.Weight = math.Float64frombits(binary.LittleEndian.Uint64(rec[4:]))
			// The fold runs at float32(weight): +Inf would poison the whole
			// mean, and a zero would count a client that folds nothing.
			if w := float32(u.Weight); !(w > 0) || math.IsInf(float64(w), 0) {
				rejectConn(fmt.Errorf("%w: update weight %v", core.ErrCorrupt, u.Weight))
				return
			}
		}
		start := time.Now()

		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if s.cfg.UploadTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, s.cfg.UploadTimeout)
			cr.deadline = time.Now().Add(s.cfg.UploadTimeout)
		}
		var err error
		u.WireBytes, u.Stats, err = s.cfg.Ingestor.IngestStream(ctx, u.Client, u.Weight, pre.dopts, br)
		cancel()
		cr.deadline = time.Time{}

		// WireBytes comes from the de-framer's logical counts, which stay
		// exact on a multi-update connection where bufio read-ahead may
		// already hold the next update's bytes.
		u.WireBytes += wireExtra
		wireExtra = 0
		if err != nil {
			rejected++
			m.updatesRejected[rejectReason(err)].Inc()
		} else {
			if s.cfg.Handler != nil {
				s.cfg.Handler(u)
			}
			wall := time.Since(start)
			updates++
			m.updates.Inc()
			m.wireBytes.Add(uint64(u.WireBytes))
			m.readWaitNS.Add(uint64(u.Stats.ReadWait))
			m.decodeWorkNS.Add(uint64(u.Stats.DecodeWork))
			m.wallNS.Add(uint64(wall))
			m.bytesRecycled.Add(u.Stats.BytesRecycled)
			m.wireHist.Observe(float64(u.WireBytes))
			m.decodeHist.Observe(u.Stats.DecompressTime.Seconds())
			m.overlapHist.Observe(u.Stats.OverlapRatio())
			if s.cfg.Tracer != nil { // the attributes box their values even for a nil tracer
				s.cfg.Tracer.Event("update",
					telemetry.A("client", u.Client),
					telemetry.A("remote", remote),
					telemetry.A("wire_bytes", u.WireBytes),
					telemetry.A("raw_bytes", u.Stats.RawBytes),
					telemetry.A("ratio", u.Stats.Ratio()),
					telemetry.A("decode_us", u.Stats.DecompressTime.Microseconds()),
					telemetry.A("read_wait_us", u.Stats.ReadWait.Microseconds()),
					telemetry.A("wall_us", wall.Microseconds()),
					telemetry.A("overlap", u.Stats.OverlapRatio()),
				)
			}
		}
		writeAck(conn, err)
		if err != nil {
			return
		}
	}
}

// acceptedAck is the one-byte ack of an accepted update, shared by every
// connection (conn.Write only reads it).
var acceptedAck = []byte{ackAccepted}

func writeAck(conn net.Conn, err error) {
	if err == nil {
		conn.Write(acceptedAck) //nolint:errcheck — client failure is its problem
		return
	}
	msg := err.Error()
	if len(msg) > ackMsgLimit {
		msg = msg[:ackMsgLimit]
	}
	buf := make([]byte, 0, 3+len(msg))
	buf = append(buf, ackRejected)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(msg)))
	buf = append(buf, msg...)
	conn.Write(buf) //nolint:errcheck
}
