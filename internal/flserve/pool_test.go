package flserve

// The connection buffers come from pools: a server's read buffer goes back
// when handleConn exits, a client's write buffer when its Session closes.
// These tests hold the two ends of that reuse: a recycled read buffer
// carries nothing of the connection before it into the next, and a closed
// or failed session hands its writer back and never writes through it again.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// TestSessionUseAfterClose: an upload on a closed session is refused with an
// error before it touches the writer Close recycled.
func TestSessionUseAfterClose(t *testing.T) {
	streams, _ := compressUpdates(t, 1)
	srv, err := Listen("127.0.0.1:0", Config{Ingestor: newCollector()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	s, err := (&Client{Addr: srv.Addr().String()}).Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Upload(ctx, 0, streams[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Upload(ctx, 1, streams[0]); !errors.Is(err, errSessionClosed) {
		t.Fatalf("Upload after Close: %v, want errSessionClosed", err)
	}
	if _, err := s.UploadState(ctx, 2, clientUpdate(2), core.Options{}, nil); !errors.Is(err, errSessionClosed) {
		t.Fatalf("UploadState after Close: %v, want errSessionClosed", err)
	}
	if st := srv.Snapshot(); st.Updates != 1 || st.Rejected != 0 {
		t.Fatalf("stats %+v, want 1 update and no rejection", st)
	}
}

// returnsWriter reports whether fn, which dials one session, leaves the
// writer that session took back in writerPool. With one P and no collection
// the pool hands out the writer put last, so the writer fn draws is a marker
// put into an emptied pool, and the next draw finds it again only if fn put
// it back.
func returnsWriter(t *testing.T, fn func()) bool {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	newWriter := writerPool.New
	writerPool.New = nil
	for writerPool.Get() != nil {
	}
	writerPool.New = newWriter
	marker := bufio.NewWriterSize(nil, 64<<10)
	writerPool.Put(marker)
	fn()
	return writerPool.Get() == marker
}

// fakeServer accepts connections on a loopback listener and hands each to
// serve on its own goroutine until the test ends.
func fakeServer(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestDialDeltaFailureReturnsWriter: every way DialDelta can fail after the
// dial leaves through the one exit that closes the session, so the session's
// writer goes back to the pool. The server here closes without answering, or
// sheds; a prelude that fails to flush takes the same exit.
func TestDialDeltaFailureReturnsWriter(t *testing.T) {
	servers := map[string]func(net.Conn){
		"no answer": func(conn net.Conn) {
			var pre [8]byte
			conn.Read(pre[:]) //nolint:errcheck — the close is the answer
		},
		"shed": func(conn net.Conn) {
			conn.Write([]byte{ackShed, 25, 0}) //nolint:errcheck
		},
	}
	for name, serve := range servers {
		t.Run(name, func(t *testing.T) {
			c := &Client{Addr: fakeServer(t, serve)}
			var err error
			if !returnsWriter(t, func() { _, err = c.DialDelta(context.Background(), 1) }) {
				t.Fatal("the failed dial kept its session's writer")
			}
			if err == nil {
				t.Fatal("DialDelta succeeded")
			}
		})
	}
	t.Run("closed session", func(t *testing.T) {
		c := &Client{Addr: fakeServer(t, func(net.Conn) {})}
		if !returnsWriter(t, func() {
			if s, err := c.Dial(context.Background()); err == nil {
				s.Close()
			}
		}) {
			t.Fatal("Close kept the session's writer")
		}
	})
}

// waitIdle waits until srv serves no connection, which is after the last
// handleConn returned its read buffer.
func waitIdle(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.m.connsActive.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("a connection is still being served")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecycledReaderAfterEveryExit serves connections one after another, each
// starting once the last handleConn has returned its read buffer: after a
// prelude failure with junk left in the buffer, a connection that dies
// mid-record, a rejected update and an idle timeout, the next upload must
// still decode bit for bit. Run it under -race too: the buffer changes
// goroutines with every connection.
func TestRecycledReaderAfterEveryExit(t *testing.T) {
	streams, expected := compressUpdates(t, 5)
	col := newCollector()
	srv, err := Listen("127.0.0.1:0", Config{IdleTimeout: 100 * time.Millisecond, Ingestor: col, Handler: col.handle})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()
	raw := func(data []byte) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(data); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite() //nolint:errcheck — the server sees EOF either way
		readAck(conn)                    //nolint:errcheck — these connections are meant to fail
	}
	stalled := func() {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(binary.LittleEndian.AppendUint32(nil, connMagic)); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for srv.m.idleKills.Value() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("the stalled connection was not dropped")
			}
			time.Sleep(time.Millisecond)
		}
	}
	var corrupt bytes.Buffer
	corrupt.Write(binary.LittleEndian.AppendUint32(nil, connMagic))
	corrupt.Write(binary.LittleEndian.AppendUint32(nil, 99))
	if err := wire.NewWriter(&corrupt).WriteStream(streams[0]); err != nil {
		t.Fatal(err)
	}
	corrupt.Bytes()[corrupt.Len()/2] ^= 0xFF

	exits := []struct {
		name string
		run  func()
	}{
		{"prelude failure", func() { raw(bytes.Repeat([]byte("GARBAGE!"), 1000)) }},
		{"mid-record EOF", func() { raw(append(binary.LittleEndian.AppendUint32(nil, connMagic), 7, 0)) }},
		{"rejected update", func() { raw(corrupt.Bytes()) }},
		{"idle timeout", stalled},
	}
	ctx := context.Background()
	c := &Client{Addr: addr}
	if err := c.Upload(ctx, 0, streams[0]); err != nil {
		t.Fatal(err)
	}
	for i, exit := range exits {
		waitIdle(t, srv)
		exit.run()
		waitIdle(t, srv)
		id := uint32(i + 1)
		if err := c.Upload(ctx, id, streams[id]); err != nil {
			t.Fatalf("upload after %s: %v", exit.name, err)
		}
		col.mu.Lock()
		got := col.states[id]
		col.mu.Unlock()
		if got == nil || !bytes.Equal(got.Marshal(), expected[id].Marshal()) {
			t.Fatalf("upload after %s: decode not bit-identical to the in-memory decode", exit.name)
		}
	}
	if st := srv.Snapshot(); st.Updates != 5 || st.Rejected != 4 {
		t.Fatalf("stats %+v, want 5 updates and 4 rejections", st)
	}
}
