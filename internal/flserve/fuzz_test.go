package flserve

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/eblctest"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// splitConn is one end of a connection built from two net.Pipes, so the
// peer can end what it sends (closing the inbound pipe) and still read every
// reply: net.Pipe alone has no half-close.
type splitConn struct {
	net.Conn          // inbound: reads, deadlines, addresses
	out      net.Conn // outbound: replies
}

func (c splitConn) Write(p []byte) (int, error) { return c.out.Write(p) }

func (c splitConn) Close() error {
	c.out.Close()
	return c.Conn.Close()
}

// serveConnSeeds builds the fuzz seeds: one valid FLS1, FLS2 and FLS3
// connection of two updates each, and each of them cut at every prelude
// and record boundary.
func serveConnSeeds(t testing.TB) [][]byte {
	rng := rand.New(rand.NewPCG(1, 2))
	var frames [2][]byte
	for i := range frames {
		sd := tensor.NewStateDict()
		sd.Add("w", tensor.KindWeight, tensor.FromData(eblctest.WeightLike(rng, 512), 512))
		sd.Add("b", tensor.KindBias, tensor.New(4))
		stream, _, err := core.Compress(sd, core.Options{LossyParams: ebcl.Rel(1e-2)})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := wire.NewWriter(&buf).WriteStream(stream); err != nil {
			t.Fatal(err)
		}
		frames[i] = buf.Bytes()
	}
	le := binary.LittleEndian
	var seeds [][]byte
	for _, pre := range [][]byte{
		le.AppendUint32(nil, connMagic),
		le.AppendUint32(le.AppendUint32(nil, connMagicDelta), 1),
		le.AppendUint32(nil, connMagicWeighted),
	} {
		weighted := le.Uint32(pre) == connMagicWeighted
		conn := append([]byte(nil), pre...)
		cuts := []int{0, 4}
		if len(pre) > 4 {
			cuts = append(cuts, len(pre))
		}
		for i, f := range frames {
			conn = le.AppendUint32(conn, uint32(i))
			cuts = append(cuts, len(conn))
			if weighted {
				conn = le.AppendUint64(conn, math.Float64bits(2))
				cuts = append(cuts, len(conn))
			}
			conn = append(conn, f...)
			cuts = append(cuts, len(conn))
		}
		for _, n := range cuts {
			seeds = append(seeds, conn[:n])
		}
	}
	return seeds
}

// FuzzServeConn feeds arbitrary client bytes to the server's connection
// loop — readPrelude and handleConn's record loop — over an in-memory
// connection. Whatever arrives, handleConn must return without a panic; its
// replies must parse as an optional FLS2 answer byte, accepted acks, at most
// one rejection or shed ack, and the end of the connection; and the server
// must count exactly the updates it acked.
func FuzzServeConn(f *testing.F) {
	for _, seed := range serveConnSeeds(f) {
		f.Add(seed)
	}
	ref := clientUpdate(100)
	srv, err := Listen("127.0.0.1:0", Config{
		Ingestor:    newCollector(),
		IdleTimeout: 200 * time.Millisecond,
		RefProvider: func(epoch uint32) *tensor.StateDict {
			if epoch == 1 {
				return ref
			}
			return nil
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	f.Fuzz(func(t *testing.T, in []byte) {
		clientIn, serverIn := net.Pipe()
		serverOut, clientOut := net.Pipe()
		go func() {
			clientIn.Write(in) //nolint:errcheck — the server may hang up first
			clientIn.Close()
		}()
		replies := make(chan []byte, 1)
		go func() {
			all, _ := io.ReadAll(clientOut)
			replies <- all
		}()
		before := srv.Snapshot().Updates
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.handleConn(splitConn{Conn: serverIn, out: serverOut})
		}()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("handleConn did not return")
		}
		r := <-replies
		if len(in) >= 8 && binary.LittleEndian.Uint32(in) == connMagicDelta {
			if len(r) == 0 || r[0] > 1 {
				t.Fatalf("FLS2 connection: replies % x do not open with an answer byte", r)
			}
			r = r[1:]
		}
		acked := 0
		for len(r) > 0 && r[0] == ackAccepted {
			acked++
			r = r[1:]
		}
		if len(r) > 0 {
			switch {
			case r[0] == ackRejected && len(r) >= 3 && len(r) == 3+int(binary.LittleEndian.Uint16(r[1:])):
			case r[0] == ackShed && len(r) == 3:
			default:
				t.Fatalf("after %d accepted acks the replies end in % x, not one rejection or shed ack", acked, r)
			}
		}
		if got := srv.Snapshot().Updates - before; got != acked {
			t.Fatalf("server counted %d updates, acked %d", got, acked)
		}
	})
}
