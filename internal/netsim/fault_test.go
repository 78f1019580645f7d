package netsim_test

// A seeded, fault-injecting listener for the aggregation server, and rounds
// of concurrent uploads through it. Each connection the listener accepts may
// meet one fault, chosen per client and attempt from the round's seed: a
// reset partway through a wire frame, a truncation before the wire trailer is
// complete, a stall mid-frame or a connection magic that trickles in, both
// past the server's idle timeout, or an ack the client never reads after the
// update folded (lost, or met by the client's reset), which makes the
// client's retry a duplicate. A client may instead send a well-formed update
// that decodes to NaN. After every round the server's and the aggregator's
// resources must be back where they started and the mean must be exactly
// that of the clients whose upload was acked. Each seeded round then
// forwards its fold to a root server through a second faultListener, as an
// edge does, and one fixed round bursts into a full admission queue.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/flserve"
	"repro/internal/promtext"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// fault is what one connection meets.
type fault uint8

const (
	faultNone      fault = iota
	faultReset           // the connection resets partway through a frame
	faultTruncate        // the upload ends inside its wire trailer frame
	faultDropAck         // the ack is lost after the update folded
	faultStall           // the connection stops delivering partway through a frame
	faultLoris           // the magic trickles in a byte at a time, then stops
	faultCloseAck        // the client closed before reading its ack: the ack write fails
	faultNonFinite       // the client's update decodes to NaN (a client's, not an attempt's)
	faultKinds
)

func (f fault) String() string {
	return [...]string{"none", "reset", "truncate", "drop-ack", "stall", "loris", "close-ack", "nonfinite"}[f]
}

// idleTimeout is the server's IdleTimeout in a fault round: a stall or a
// slow prelude is cut this long after its last byte.
const idleTimeout = 20 * time.Millisecond

// step is one attempt's fault; at is the byte offset on the connection where
// a reset, a truncation, a stall or a slow prelude cuts it.
type step struct {
	kind fault
	at   int
}

func (s step) String() string { return fmt.Sprintf("%v@%d", s.kind, s.at) }

// idEnd is where the client ID ends on an FLS1 connection: the 4-byte magic,
// then the ID. The listener learns which client a connection carries there,
// before any frame byte.
const idEnd = 8

// faultPlan holds each client's faults, one per attempt in order; attempts
// past its list are clean. It is shared by the round's connections, and
// records the clients whose ack it dropped.
type faultPlan struct {
	mu       sync.Mutex
	steps    map[uint32][]step
	attempts map[uint32]int
	dropped  map[uint32]bool
	injected [faultKinds]atomic.Int32
}

func newFaultPlan() *faultPlan {
	return &faultPlan{steps: map[uint32][]step{}, attempts: map[uint32]int{}, dropped: map[uint32]bool{}}
}

// ackLost records that the client's update folded and that the client never
// read its ack, through a drop-ack or a close-ack fault.
func (p *faultPlan) ackLost(id uint32, kind fault) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropped[id] = true
	p.injected[kind].Add(1)
}

// ackDropped reports whether an attempt of the client folded and never read
// its ack.
func (p *faultPlan) ackDropped(id uint32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped[id]
}

// next returns the fault of the client's next attempt.
func (p *faultPlan) next(id uint32) step {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := p.attempts[id]
	p.attempts[id]++
	if k < len(p.steps[id]) {
		return p.steps[id][k]
	}
	return step{}
}

// faultListener wraps every connection it accepts in a faultConn.
type faultListener struct {
	net.Listener
	plan *faultPlan
}

func (l faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: c, plan: l.plan}, nil
}

// faultConn is the server's end of one connection. It reads the magic and
// client ID before handing the server a byte, looks up that attempt's
// fault, and then cuts the reads at the fault's offset, trickles the magic,
// or drops the ack. The server reads and writes a connection from one
// goroutine, so its fields need no lock.
type faultConn struct {
	net.Conn
	plan     *faultPlan
	read     int // bytes handed to the server
	head     [idEnd]byte
	step     step
	known    bool      // step is set: the magic and client ID have been read
	dead     bool      // the connection is cut: reads see EOF
	deadline time.Time // the server's read deadline
}

// SetReadDeadline records the server's read deadline without arming it on
// the socket: only a stall or a slow prelude waits it out (Read), so a loaded
// host cannot time out a connection that meets neither.
func (c *faultConn) SetReadDeadline(t time.Time) error {
	c.deadline = t
	return nil
}

func (c *faultConn) Read(p []byte) (int, error) {
	if c.dead {
		return 0, io.EOF
	}
	if !c.known {
		if _, err := io.ReadFull(c.Conn, c.head[:]); err != nil {
			return 0, err
		}
		c.step, c.known = c.plan.next(binary.LittleEndian.Uint32(c.head[idEnd-4:])), true
	}
	if k := c.step.kind; k == faultReset || k == faultTruncate || k == faultStall || k == faultLoris {
		if c.read >= c.step.at {
			c.dead = true
			c.plan.injected[k].Add(1)
			switch k {
			case faultTruncate:
				return 0, io.EOF
			case faultReset:
				c.reset()
				return 0, &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
			}
			// Nothing more arrives: the read waits out the server's deadline.
			time.Sleep(time.Until(c.deadline))
			return 0, &net.OpError{Op: "read", Net: "tcp", Err: os.ErrDeadlineExceeded}
		}
		p = p[:min(len(p), c.step.at-c.read)]
	}
	if c.read < idEnd {
		if c.step.kind == faultLoris {
			p = p[:min(len(p), 1)]
		}
		n := copy(p, c.head[c.read:])
		c.read += n
		return n, nil
	}
	n, err := c.Conn.Read(p)
	c.read += n
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	if k := c.step.kind; c.known && !c.dead && (k == faultDropAck || k == faultCloseAck) {
		// The server's first write on an FLS1 connection is the update's ack.
		c.dead = true
		c.plan.ackLost(binary.LittleEndian.Uint32(c.head[idEnd-4:]), k)
		if k == faultDropAck {
			c.Conn.Close()
			return len(p), nil
		}
		// The client closed its end, and its reset beats the ack.
		c.reset()
		return 0, &net.OpError{Op: "write", Net: "tcp", Err: syscall.EPIPE}
	}
	return c.Conn.Write(p)
}

// reset closes the connection with an RST, as a peer that crashed would.
func (c *faultConn) reset() {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		tc.SetLinger(0) //nolint:errcheck — a plain close still cuts the client off
	}
	c.Conn.Close()
}

// faultClient is one client's update: its stream and the byte offsets on
// the connection where its wire frames start, where the trailer frame
// starts, and where the upload ends.
type faultClient struct {
	sd                        *tensor.StateDict
	stream                    []byte
	framesAt, trailerAt, size int
	nonfinite                 bool
}

// faultUpdate returns client c's update. Its lossy tensors are constants,
// which the codecs store exactly, and its lossless ones small integers, so
// every sum the fold forms is exact in float32 in any order and the mean has
// one right answer. A nonfinite update holds one NaN in a lossless tensor,
// which the codec carries and the decoder refuses.
func faultUpdate(t *testing.T, rng *rand.Rand, c int, nonfinite bool) faultClient {
	t.Helper()
	sd := tensor.NewStateDict()
	for i, n := range []int{2048, 1536} {
		v := make([]float32, n)
		for j := range v {
			v[j] = float32(c+i+1) / 8
		}
		sd.Add(fmt.Sprintf("layer%d.weight", i), tensor.KindWeight, tensor.FromData(v, n))
	}
	for i, n := range []int{3000, 1000} {
		v := make([]float32, n)
		for j := range v {
			v[j] = float32(rng.IntN(129) - 64)
		}
		if nonfinite && i == 1 {
			v[n/2] = float32(math.NaN())
		}
		sd.Add(fmt.Sprintf("layer%d.bias", i), tensor.KindBias, tensor.FromData(v, n))
	}
	stream, _, err := core.Compress(sd, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	secs, err := core.Sections(stream)
	if err != nil {
		t.Fatal(err)
	}
	// The sections are framed one by one, so the trailer frame's offset shows.
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	err = w.WriteSection(core.SectionHeader, secs.Header)
	for _, s := range secs.Tensors {
		if err == nil {
			err = w.WriteSection(core.SectionTensor, s)
		}
	}
	if err == nil {
		err = w.WriteSection(core.SectionLossless, secs.Lossless)
	}
	if err != nil {
		t.Fatal(err)
	}
	trailerAt := idEnd + buf.Len()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return faultClient{sd: sd, stream: stream, framesAt: idEnd + 5, trailerAt: trailerAt, size: idEnd + buf.Len(), nonfinite: nonfinite}
}

// transportError reports whether err is a failed connection rather than a
// verdict: an EOF or a network error, however the client wrapped it.
func transportError(err error) bool {
	var op *net.OpError
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &op)
}

// TestFaultRounds runs one round of concurrent uploads per seed through a
// faultListener. A client meets up to two faults, each on its own attempt,
// and may retry once per fault, so its last attempt is clean. After each
// round:
//   - the aggregator's pool holds no token (Pool.Busy() == 0);
//   - the float pool has taken back every buffer it handed out;
//   - the goroutine count is back to where it was before the server started;
//   - the fold counts each client acked exactly once, however many of its
//     attempts reached the server, and each client that lost an ack and then
//     failed (see faultRound), and no other;
//   - the mean is bit for bit the mean of those clients' updates;
//   - every client error is a rejection, a shed or a transport error, and a
//     client whose update decodes to NaN is rejected;
//   - the server counts one idle-timeout kill per stall and slow prelude,
//     and one nonfinite rejection per client whose update decodes to NaN.
//
// A seed that ever fails stays in the list as a regression row, and so does
// each fixed plan below.
func TestFaultRounds(t *testing.T) {
	const clients = 8
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	var injected, forwarded [faultKinds]int32
	unacked := 0
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 57))
			plan := newFaultPlan()
			ups := make([]faultClient, clients)
			for c := range ups {
				// A nonfinite client meets no other fault: a cut that races
				// its decode could be refused for either reason.
				nonfinite := rng.IntN(8) == 0
				ups[c] = faultUpdate(t, rng, c, nonfinite)
				var steps []step
				n := rng.IntN(3)
				if nonfinite {
					n = 0
					plan.injected[faultNonFinite].Add(1)
				}
				for range n {
					s := step{kind: fault(1 + rng.IntN(int(faultNonFinite)-1))}
					switch s.kind {
					case faultReset, faultStall:
						s.at = ups[c].framesAt + 1 + rng.IntN(ups[c].trailerAt-ups[c].framesAt-1)
					case faultTruncate:
						s.at = ups[c].trailerAt + rng.IntN(ups[c].size-ups[c].trailerAt)
					case faultLoris:
						s.at = 1 + rng.IntN(3)
					}
					steps = append(steps, s)
				}
				plan.steps[uint32(c)] = steps
			}
			// The forward hop's faults come from a stream of their own, so
			// the clients' plans are those the seed has always drawn.
			frng := rand.New(rand.NewPCG(seed, 58))
			forward := []step{}
			for range frng.IntN(3) {
				s := step{kind: forwardKinds[frng.IntN(len(forwardKinds))]}
				if s.kind == faultReset || s.kind == faultStall {
					s.at = forwardFramesAt + frng.IntN(64)
				}
				forward = append(forward, s)
			}
			hop := newFaultPlan()
			unacked += faultRound(t, plan, ups, round{forward: forward, hop: hop})
			for k := range injected {
				injected[k] += plan.injected[k].Load()
				forwarded[k] += hop.injected[k].Load()
			}
		})
	}
	for k := faultReset; k < faultKinds; k++ {
		if injected[k] == 0 {
			t.Errorf("no %v fault was injected over seeds %v", k, seeds)
		}
	}
	for _, k := range forwardKinds {
		if forwarded[k] == 0 {
			t.Errorf("no %v fault met a forward hop over seeds %v", k, seeds)
		}
	}
	t.Logf("over seeds %v: %v injected, %v on the forward hops; %d clients folded but never acked", seeds, injected, forwarded, unacked)

	// A truncated retry after a lost ack: the server rejects the corrupt
	// retry of an update it has already folded, so client 0 is folded but
	// never acked (ROADMAP satellite 1). Client 1's clean retry after a lost
	// ack is acked as a duplicate, and client 2's truncated first attempt is
	// rejected before anything folds. If the server comes to ack a corrupt
	// duplicate of an update it folded, want 0 here.
	t.Run("dropack-truncate", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(0, 57))
		plan := newFaultPlan()
		ups := make([]faultClient, clients)
		for c := range ups {
			ups[c] = faultUpdate(t, rng, c, false)
		}
		plan.steps[0] = []step{{kind: faultDropAck}, {kind: faultTruncate, at: ups[0].trailerAt}}
		plan.steps[1] = []step{{kind: faultDropAck}}
		plan.steps[2] = []step{{kind: faultTruncate, at: ups[2].trailerAt}}
		if got := faultRound(t, plan, ups, round{}); got != 1 {
			t.Errorf("%d clients folded but never acked, want 1 (client 0)", got)
		}
	})

	// A burst into a full queue, on a fixed schedule: the round's MaxConns
	// uploads are dialed one at a time, each held in the ingestor before the
	// next; then queueDepth more, each waiting in the queue before the next;
	// then the rest at once, which admission sheds, as no worker is free.
	// Exactly MaxConns + queueDepth fold, and each of the rest is shed once
	// and folds nothing.
	t.Run("full-queue", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(0, 59))
		ups := make([]faultClient, 10)
		for c := range ups {
			ups[c] = faultUpdate(t, rng, c, false)
		}
		faultRound(t, newFaultPlan(), ups, round{queueDepth: 2})
	})
}

// round is what a faultRound adds to concurrent uploads.
type round struct {
	// queueDepth > 0 serves with that admission queue and uploads on
	// the full-queue schedule (see TestFaultRounds).
	queueDepth int
	// forward, when not nil, are the faults the fold's forward hop meets,
	// one per attempt (empty: a clean hop); hop records them.
	forward []step
	hop     *faultPlan
}

// forwardKinds are the faults a forward hop may meet: those that do not
// depend on where its stream, encoded as it is sent, puts its trailer.
var forwardKinds = []fault{faultReset, faultStall, faultDropAck, faultCloseAck}

// forwardFramesAt is where a forward's wire frames start on its FLS3
// connection: after the magic and edge ID, its 8-byte weight and the first
// frame's 5-byte head. A forward stream runs well past 64 bytes beyond it.
const forwardFramesAt = idEnd + 8 + 5

// edgeID is the client ID an edge forwards its fold under.
const edgeID = 1 << 20

// heldIngestor holds every update in IngestStream until gate is closed,
// counting those it holds, so a round can fill the server's workers.
type heldIngestor struct {
	*agg.Sharded
	gate chan struct{}
	held atomic.Int32
}

func (h *heldIngestor) IngestStream(ctx context.Context, client uint32, weight float64, dopts core.DecodeOptions, r io.Reader) (int64, core.DecompressStats, error) {
	h.held.Add(1)
	<-h.gate
	return h.Sharded.IngestStream(ctx, client, weight, dopts, r)
}

// metric returns the value of reg's unlabelled sample name, 0 when it has
// none.
func metric(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := promtext.ParseText(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	s, _ := promtext.FindSample(samples, name)
	return s.Value
}

// waitFor polls done until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, done func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !done(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
	}
}

// forwardHop forwards sh's fold, folded updates, to a root server through
// a faultListener on which the edge's upload meets r.forward, and checks
// that the edge let its fold go and the root folded it exactly once, at the
// edge's weight: the hop re-encodes the mean, whose constants and integers
// the codecs store exactly, so the root's mean is edgeMean scaled by the
// weight and back, bit for bit, whatever the faults made the edge resend.
func forwardHop(t *testing.T, sh *agg.Sharded, pool *sched.Pool, edgeMean *tensor.StateDict, folded int, r round) {
	t.Helper()
	r.hop.steps[edgeID] = r.forward
	root := agg.New(agg.Config{Pool: pool})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := flserve.Serve(faultListener{ln, r.hop}, flserve.Config{Ingestor: root, MaxConns: 2, IdleTimeout: idleTimeout})
	up := &flserve.Client{Addr: ln.Addr().String(), Retries: len(r.forward), RetryBackoff: time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// The client retries a cut connection. A stall ends in the root's
	// rejection, which it does not retry: the edge keeps its fold and
	// forwards again, once per fault at most.
	var w float64
	for try := 0; ; try++ {
		w, err = sh.Forward(ctx, up, edgeID, core.Options{})
		edge, n := sh.Mean()
		core.Release(edge)
		if err != nil && n != folded {
			t.Errorf("the edge holds %d of its %d updates after a failed forward", n, folded)
		}
		if err == nil && n != 0 {
			t.Errorf("the edge still holds %d updates after its forward", n)
		}
		if err == nil || try == len(r.forward) {
			break
		}
	}
	srv.Close()
	if err != nil || w != float64(folded) {
		t.Errorf("forward (faults %v): weight %v, error %v; want weight %d", r.forward, w, err, folded)
	}
	mean, n := root.Mean()
	defer root.Reset()
	defer core.Release(mean)
	if folded == 0 {
		if n != 0 {
			t.Errorf("the root folded %d updates of an edge that had none", n)
		}
		return
	}
	if n != 1 {
		t.Errorf("the root folded the edge's forward %d times (faults %v), want once", n, r.forward)
		return
	}
	want := edgeMean.Clone()
	want.Scale(float32(w))
	want.Scale(float32(1 / w))
	for _, e := range want.Entries() {
		if got := mean.Get(e.Name); got == nil || !sameBits(got.Data, e.Tensor.Data) {
			t.Errorf("tensor %q of the root's mean is not the edge's mean at weight %v", e.Name, w)
		}
	}
}

// faultRound serves one round of ups through a faultListener with plan and
// checks the round's invariants; r may add a full queue and a forward hop. A
// client whose ack was dropped has folded, so when its retries then fail (a
// truncated retry is rejected as corrupt, although its update is already in
// the fold) it counts among the folded clients though it was never acked;
// faultRound returns how many did.
func faultRound(t *testing.T, plan *faultPlan, ups []faultClient, r round) (unacked int) {
	const maxConns = 4
	goroutines := runtime.NumGoroutine()
	hits0, misses0 := sched.FloatPoolCounters()
	puts0 := sched.FloatPoolPuts()

	pool := sched.NewPool(2)
	sh := agg.New(agg.Config{Pool: pool})
	held := &heldIngestor{Sharded: sh, gate: make(chan struct{})}
	if r.queueDepth == 0 {
		close(held.gate)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := flserve.Serve(faultListener{ln, plan}, flserve.Config{Ingestor: held, MaxConns: maxConns, QueueDepth: r.queueDepth, IdleTimeout: idleTimeout})
	reg := telemetry.NewRegistry()
	srv.RegisterMetrics(reg)
	errs := make([]error, len(ups))
	var wg sync.WaitGroup
	upload := func(c int) {
		cl := flserve.Client{Addr: ln.Addr().String(), Retries: len(plan.steps[uint32(c)]), RetryBackoff: time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			errs[c] = cl.Upload(ctx, uint32(c), ups[c].stream)
		}()
	}
	admitted := len(ups)
	if r.queueDepth > 0 {
		admitted = maxConns + r.queueDepth
		for c := range maxConns {
			upload(c)
			waitFor(t, fmt.Sprintf("upload %d was never held in the ingestor", c), func() bool { return held.held.Load() > int32(c) })
		}
		for c := maxConns; c < admitted; c++ {
			upload(c)
			waitFor(t, fmt.Sprintf("upload %d never queued", c), func() bool {
				return metric(t, reg, "fedsz_server_queue_depth") > float64(c-maxConns)
			})
		}
		for c := admitted; c < len(ups); c++ {
			upload(c)
		}
		waitFor(t, "the burst was never shed", func() bool {
			return metric(t, reg, "fedsz_server_shed_total") >= float64(len(ups)-admitted)
		})
		close(held.gate)
	} else {
		for c := range ups {
			upload(c)
		}
	}
	wg.Wait()
	srv.Close()

	want := tensor.NewStateDict()
	acked := 0
	for c, err := range errs {
		if err != nil && !errors.Is(err, flserve.ErrRejected) && !errors.Is(err, flserve.ErrShed) && !transportError(err) {
			t.Errorf("client %d (faults %v): error %v is no rejection, shed or transport error", c, plan.steps[uint32(c)], err)
		}
		if ups[c].nonfinite && !errors.Is(err, flserve.ErrRejected) {
			t.Errorf("client %d's update decodes to NaN, and its upload ended in %v, not a rejection", c, err)
		}
		if (err == nil) != (c < admitted) && r.queueDepth > 0 {
			t.Errorf("client %d of a burst into a full queue ended in %v; the first %d fold", c, err, admitted)
		}
		switch {
		case err == nil:
			acked++
		case plan.ackDropped(uint32(c)):
			unacked++
		default:
			continue
		}
		if want.Len() == 0 {
			want = ups[c].sd.Clone()
		} else if err := want.AddScaled(ups[c].sd, 1); err != nil {
			t.Fatal(err)
		}
	}
	mean, n := sh.Mean()
	folded := acked + unacked
	if n != folded {
		t.Errorf("the fold counts %d updates; %d clients were acked and %d folded without an ack", n, acked, unacked)
	}
	if folded > 0 {
		want.Scale(float32(1 / float64(folded)))
		for _, e := range want.Entries() {
			got := mean.Get(e.Name)
			if got == nil || !sameBits(got.Data, e.Tensor.Data) {
				t.Errorf("tensor %q of the mean is not the mean of the %d folded updates", e.Name, folded)
			}
		}
	}
	if r.forward != nil {
		forwardHop(t, sh, pool, mean, folded, r)
	}
	core.Release(mean)
	sh.Reset()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := promtext.ParseText(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, label, value string
		want               int32
	}{
		{"fedsz_server_timeout_kills_total", "kind", "idle", plan.injected[faultStall].Load() + plan.injected[faultLoris].Load()},
		{"fedsz_server_updates_rejected_total", "reason", "nonfinite", plan.injected[faultNonFinite].Load()},
		{"fedsz_server_shed_total", "", "", int32(len(ups) - admitted)},
	} {
		labels := []string{c.label, c.value}
		if c.label == "" {
			labels = nil
		}
		if s, ok := promtext.FindSample(samples, c.name, labels...); !ok || s.Value != float64(c.want) {
			t.Errorf("%s{%s=%q} is %v, want %d", c.name, c.label, c.value, s.Value, c.want)
		}
	}

	if b := pool.Busy(); b != 0 {
		t.Errorf("the aggregator's pool holds %d tokens after the round", b)
	}
	hits1, misses1 := sched.FloatPoolCounters()
	if got, put := hits1+misses1-hits0-misses0, sched.FloatPoolPuts()-puts0; got != put {
		t.Errorf("the float pool handed out %d buffers and took back %d", got, put)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > goroutines {
		t.Errorf("%d goroutines after the round, %d before", g, goroutines)
	}
	return unacked
}

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}
