package flserve

// The connection protocol's bytes, pinned from both ends: what each client
// entry point writes, and what the server answers. The expected bytes are
// literals (the record fields) followed by wire.Writer.WriteStream output
// (the update's frames), so a client refactor that moves one byte fails here.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ebcl"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// hexBytes decodes a hex literal that may carry spaces between fields.
func hexBytes(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// framed is stream as wire.Writer.WriteStream frames it.
func framed(t *testing.T, stream []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.NewWriter(&buf).WriteStream(stream); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recordingServer accepts one connection and plays the server's side of the
// protocol by hand: it answers an FLS2 prelude with 0, reads each update's
// record fields, consumes its wire stream through the de-framer and acks it
// with 00. When the client ends the connection it returns every byte the
// client sent on the channel.
func recordingServer(t *testing.T) (string, <-chan []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	got := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer conn.Close()
		var sent bytes.Buffer
		r := io.TeeReader(conn, &sent)
		defer func() { got <- sent.Bytes() }()
		var magic [4]byte
		if _, err := io.ReadFull(r, magic[:]); err != nil {
			return
		}
		record := 4
		switch binary.LittleEndian.Uint32(magic[:]) {
		case connMagicDelta:
			var epoch [4]byte
			if _, err := io.ReadFull(r, epoch[:]); err != nil {
				return
			}
			conn.Write([]byte{0}) //nolint:errcheck — the client sees the failure
		case connMagicWeighted:
			record = 12
		}
		rec := make([]byte, record)
		for {
			if _, err := io.ReadFull(r, rec); err != nil {
				return
			}
			wr := wire.NewReader(r)
			_, err := io.Copy(io.Discard, wr)
			wr.Close()
			if err != nil {
				return
			}
			conn.Write([]byte{ackAccepted}) //nolint:errcheck
		}
	}()
	return ln.Addr().String(), got
}

// TestPreludeGoldenClient pins the bytes each kind of upload puts on the
// wire: FLS1 with two updates on one session, FLS2 with its proposed epoch,
// and FLS3 with the f64 weight between the client ID and the frames.
func TestPreludeGoldenClient(t *testing.T) {
	ctx := context.Background()
	streams, _ := compressUpdates(t, 2)
	sd := clientUpdate(9)
	opts := core.Options{LossyParams: ebcl.Rel(1e-2)}
	weightedStream, _, err := core.Compress(sd, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		send func(c *Client) error
		want [][]byte
	}{
		{
			name: "FLS1 session, two uploads",
			send: func(c *Client) error {
				s, err := c.Dial(ctx)
				if err != nil {
					return err
				}
				defer s.Close()
				if err := s.Upload(ctx, 5, streams[0]); err != nil {
					return err
				}
				return s.Upload(ctx, 6, streams[1])
			},
			want: [][]byte{
				hexBytes(t, "31534c46 05000000"), framed(t, streams[0]),
				hexBytes(t, "06000000"), framed(t, streams[1]),
			},
		},
		{
			name: "FLS2 session at epoch 42",
			send: func(c *Client) error {
				s, err := c.DialDelta(ctx, 42)
				if err != nil {
					return err
				}
				defer s.Close()
				return s.Upload(ctx, 5, streams[0])
			},
			want: [][]byte{hexBytes(t, "32534c46 2a000000 05000000"), framed(t, streams[0])},
		},
		{
			name: "FLS3 upload at weight 3",
			send: func(c *Client) error {
				return c.UploadWeighted(ctx, 7, 3, sd, opts, nil)
			},
			want: [][]byte{hexBytes(t, "33534c46 07000000 0000000000000840"), framed(t, weightedStream)},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, got := recordingServer(t)
			if err := tc.send(&Client{Addr: addr}); err != nil {
				t.Fatal(err)
			}
			want := bytes.Join(tc.want, nil)
			select {
			case sent := <-got:
				if !bytes.Equal(sent, want) {
					n := min(len(sent), len(want), 48)
					t.Fatalf("client sent %d bytes, want %d\n got % x…\nwant % x…", len(sent), len(want), sent[:n], want[:n])
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the recording server never saw the connection end")
			}
		})
	}
}

// rawConn dials addr and sends data as the client's opening bytes.
func rawConn(t *testing.T, addr string, data []byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	return conn
}

// readN reads exactly n reply bytes.
func readN(t *testing.T, r io.Reader, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatalf("reading %d reply bytes: %v", n, err)
	}
	return buf
}

// wantRejection reads a rejection ack — 01, a u16 message length, that many
// message bytes — and then the end of the connection.
func wantRejection(t *testing.T, conn net.Conn) {
	t.Helper()
	br := bufio.NewReader(conn)
	head := readN(t, br, 3)
	if head[0] != ackRejected {
		t.Fatalf("status % x, want 01", head[:1])
	}
	readN(t, br, int(binary.LittleEndian.Uint16(head[1:])))
	if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
		t.Fatalf("after the rejection: % x, %v; want EOF", rest, err)
	}
}

// TestPreludeGoldenServer pins the server's replies: the FLS2 answer byte,
// the accepted ack, the rejection ack's layout, the shed ack with its
// retry-after hint, and a bad magic's rejection followed by EOF.
func TestPreludeGoldenServer(t *testing.T) {
	streams, _ := compressUpdates(t, 1)
	ref := clientUpdate(100)
	srv, err := Listen("127.0.0.1:0", Config{
		Ingestor: newCollector(),
		RefProvider: func(epoch uint32) *tensor.StateDict {
			if epoch == 42 {
				return ref
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()
	update := append(hexBytes(t, "05000000"), framed(t, streams[0])...)

	t.Run("FLS2 answer", func(t *testing.T) {
		for epoch, want := range map[string]string{"2a000000": "01", "2b000000": "00"} {
			conn := rawConn(t, addr, hexBytes(t, "32534c46 "+epoch))
			if got := readN(t, conn, 1); !bytes.Equal(got, hexBytes(t, want)) {
				t.Fatalf("epoch %s: answer % x, want %s", epoch, got, want)
			}
		}
	})
	t.Run("accepted ack", func(t *testing.T) {
		conn := rawConn(t, addr, append(hexBytes(t, "31534c46"), update...))
		if got := readN(t, conn, 1); !bytes.Equal(got, []byte{0}) {
			t.Fatalf("ack % x, want 00", got)
		}
	})
	t.Run("rejection ack", func(t *testing.T) {
		bad := append(hexBytes(t, "31534c46"), update...)
		bad[len(bad)-1] ^= 0xFF // the trailer CRC no longer checks out
		wantRejection(t, rawConn(t, addr, bad))
	})
	t.Run("bad magic", func(t *testing.T) {
		wantRejection(t, rawConn(t, addr, []byte("GARB")))
	})
	t.Run("shed ack", func(t *testing.T) {
		shedSrv, err := Listen("127.0.0.1:0", Config{
			Ingestor: newCollector(), MaxConns: 1, QueueDepth: 1, RetryAfterHint: 25 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer shedSrv.Close()
		// One connection is served, one waits for the slot and one sits in
		// the queue; an idle connection holds its place, so dial until one
		// is shed.
		for range 6 {
			conn, err := net.Dial("tcp", shedSrv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond)) //nolint:errcheck
			reply, err := io.ReadAll(conn)
			if len(reply) == 0 {
				continue // held: the deadline cut the read
			}
			if want := hexBytes(t, "02 1900"); !bytes.Equal(reply, want) || err != nil {
				t.Fatalf("shed reply % x (%v), want % x then EOF", reply, err, want)
			}
			return
		}
		t.Fatal("no connection was shed")
	})
}
