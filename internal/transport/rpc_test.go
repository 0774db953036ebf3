package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func echoUpper(dst, req []byte) []byte {
	for _, b := range req {
		if 'a' <= b && b <= 'z' {
			b -= 'a' - 'A'
		}
		dst = append(dst, b)
	}
	return dst
}

func testConnBasics(t *testing.T, srv Server) {
	t.Helper()
	c, err := srv.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "HELLO" {
		t.Fatalf("resp = %q", resp)
	}
	// Multiple sequential calls on one connection.
	for i := 0; i < 10; i++ {
		msg := fmt.Sprintf("msg-%d", i)
		resp, err := c.Call([]byte(msg))
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) != fmt.Sprintf("MSG-%d", i) {
			t.Fatalf("resp = %q", resp)
		}
	}
}

func TestSharedBufBasics(t *testing.T) {
	srv := NewSharedBufServer(1024, echoUpper)
	defer srv.Close()
	testConnBasics(t, srv)
}

func TestTCPBasics(t *testing.T) {
	srv, err := NewTCPServer(echoUpper)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	testConnBasics(t, srv)
}

func TestSharedBufTooLarge(t *testing.T) {
	srv := NewSharedBufServer(8, echoUpper)
	defer srv.Close()
	c, _ := srv.Dial()
	if _, err := c.Call(make([]byte, 9)); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestSharedBufClosed(t *testing.T) {
	srv := NewSharedBufServer(8, echoUpper)
	c, _ := srv.Dial()
	srv.Close()
	if _, err := c.Call([]byte("x")); err == nil {
		t.Fatal("call after close should fail")
	}
	if _, err := srv.Dial(); err == nil {
		t.Fatal("dial after close should fail")
	}
}

func TestTCPManyClientsConcurrent(t *testing.T) {
	srv, err := NewTCPServer(echoUpper)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const clients = 20
	const callsPer = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := srv.Dial()
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < callsPer; j++ {
				msg := fmt.Sprintf("c%d-m%d", id, j)
				resp, err := c.Call([]byte(msg))
				if err != nil {
					errs <- err
					return
				}
				if string(resp) != fmt.Sprintf("C%d-M%d", id, j) {
					errs <- fmt.Errorf("bad response %q", resp)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSharedBufManyClientsConcurrent(t *testing.T) {
	srv := NewSharedBufServer(1024, echoUpper)
	defer srv.Close()
	const clients = 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := srv.Dial()
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < 200; j++ {
				msg := fmt.Sprintf("c%d", id)
				resp, err := c.Call([]byte(msg))
				if err != nil {
					errs <- err
					return
				}
				if string(resp) != fmt.Sprintf("C%d", id) {
					errs <- fmt.Errorf("bad response %q", resp)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPLargePayload(t *testing.T) {
	srv, err := NewTCPServer(func(dst, req []byte) []byte { return append(dst, req...) })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := srv.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := bytes.Repeat([]byte("x"), 1<<20)
	resp, err := c.Call(big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, big) {
		t.Fatal("payload corrupted")
	}
}

func TestTCPServerCloseUnblocksClients(t *testing.T) {
	srv, err := NewTCPServer(echoUpper)
	if err != nil {
		t.Fatal(err)
	}
	c, err := srv.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call([]byte("b")); err == nil {
		t.Fatal("call after server close should fail")
	}
	// Idempotent close.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte(""), []byte("a"), bytes.Repeat([]byte("z"), 100000)}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range payloads {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame corrupted: %d vs %d bytes", len(got), len(p))
		}
	}
}

func TestFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	_, err := readFrame(&buf)
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if want := fmt.Sprintf("frame of %d bytes", uint32(0xFFFFFFFF)); !strings.Contains(err.Error(), want) {
		t.Fatalf("err %q does not name the offending size %q", err, want)
	}
	// The arena read path reports the same typed error.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	a := getArena()
	defer putArena(a)
	if _, err := a.readBatch(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("readBatch err = %v, want ErrFrameTooLarge", err)
	}
}

func TestBatchFrameRoundTrip(t *testing.T) {
	w := getArena()
	r := getArena()
	defer putArena(w)
	defer putArena(r)
	payloads := [][]byte{[]byte(""), []byte("a"), bytes.Repeat([]byte("z"), 100000)}
	var buf bytes.Buffer
	w.beginBatch()
	for _, p := range payloads {
		w.appendRecord(p)
	}
	if err := w.writeTo(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := r.readBatch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(payloads) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(recs[i], p) {
			t.Fatalf("record %d corrupted: %d vs %d bytes", i, len(recs[i]), len(p))
		}
	}
}

func TestBatchFrameRejectsMalformed(t *testing.T) {
	r := getArena()
	defer putArena(r)
	cases := map[string][]byte{
		"empty body":      {0, 0, 0, 0},
		"truncated count": {0, 0, 0, 2, 0, 0, 0, 1},
		"record overrun":  {0, 0, 0, 9, 0, 0, 0, 1, 0, 0, 0, 99, 'x'},
		"trailing bytes":  {0, 0, 0, 10, 0, 0, 0, 1, 0, 0, 0, 1, 'x', 'y'},
	}
	for name, raw := range cases {
		var buf bytes.Buffer
		buf.Write(raw)
		if _, err := r.readBatch(&buf); err == nil {
			t.Fatalf("%s: malformed batch accepted", name)
		}
	}
}

func testCallBatch(t *testing.T, srv Server) {
	t.Helper()
	c, err := srv.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 17
	reqs := make([][]byte, n)
	for i := range reqs {
		reqs[i] = []byte(fmt.Sprintf("batch-msg-%d", i))
	}
	for round := 0; round < 5; round++ {
		resps, err := c.CallBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(resps) != n {
			t.Fatalf("%d responses for %d requests", len(resps), n)
		}
		for i, resp := range resps {
			if string(resp) != fmt.Sprintf("BATCH-MSG-%d", i) {
				t.Fatalf("round %d record %d = %q", round, i, resp)
			}
		}
	}
	// Batches interleave with single calls on the same connection.
	resp, err := c.Call([]byte("solo"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "SOLO" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestTCPCallBatch(t *testing.T) {
	srv, err := NewTCPServer(echoUpper)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	testCallBatch(t, srv)
}

func TestSharedBufCallBatch(t *testing.T) {
	srv := NewSharedBufServer(1024, echoUpper)
	defer srv.Close()
	testCallBatch(t, srv)
}

// flipBytes answers a request with every byte XORed by 0x5A, so a
// response that matches proves the record crossed the wire and the
// handler, not only that the client read back its own buffer.
func flipBytes(dst, req []byte) []byte {
	for _, b := range req {
		dst = append(dst, b^0x5A)
	}
	return dst
}

// seedRecord writes record i of connection conn in the wire-path
// stream: each connection carries 2 500 seeds, 8 records of 256 bytes
// each, laid out as [4B seed][4B seq][bytes derived from both].
func seedRecord(buf []byte, conn, i int) []byte {
	seed, seq := conn*2500+i/8, i%8
	buf = slices.Grow(buf[:0], 256)[:256]
	binary.BigEndian.PutUint32(buf, uint32(seed))
	binary.BigEndian.PutUint32(buf[4:], uint32(seq))
	for j := 8; j < len(buf); j++ {
		buf[j] = byte(seed*31 + seq*7 + j)
	}
	return buf
}

// TestTCPCallBatchConcurrent drives calls from several connections at
// once and checks every response against the handler's answer to its
// request: per-connection arenas must not bleed into each other through
// the shared pool, and batching must change the round trips, never the
// bytes. The wire-path cases are 10 000 seeds over 4 connections, 8
// records of 256 bytes per seed, one record per round trip and 64 per
// frame.
func TestTCPCallBatchConcurrent(t *testing.T) {
	cases := []struct {
		name    string
		handler Handler
		// conns connections each send records requests, batch per frame
		// (1 = Call).
		conns, records, batch int
		request               func(buf []byte, conn, i int) []byte
	}{
		{"echo", echoUpper, 8, 360, 9, func(buf []byte, conn, i int) []byte {
			return fmt.Appendf(buf[:0], "c%d-r%d-m%d", conn, i/9, i%9)
		}},
		{"wire-path/unbatched", flipBytes, 4, 20_000, 1, seedRecord},
		{"wire-path/batched", flipBytes, 4, 20_000, 64, seedRecord},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewTCPServer(tc.handler)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			var wg sync.WaitGroup
			errs := make(chan error, tc.conns)
			for conn := 0; conn < tc.conns; conn++ {
				wg.Add(1)
				go func(conn int) {
					defer wg.Done()
					if err := driveConn(srv, tc.handler, tc.records, tc.batch, func(buf []byte, i int) []byte {
						return tc.request(buf, conn, i)
					}); err != nil {
						errs <- fmt.Errorf("connection %d: %w", conn, err)
					}
				}(conn)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// driveConn sends records requests on one new connection of srv, batch
// per frame, and compares each response with h's answer to its request.
func driveConn(srv Server, h Handler, records, batch int, request func(buf []byte, i int) []byte) error {
	c, err := srv.Dial()
	if err != nil {
		return err
	}
	defer c.Close()
	reqs := make([][]byte, batch)
	resps := make([][]byte, 1)
	var want []byte
	for base := 0; base < records; base += batch {
		n := min(batch, records-base)
		for j := range reqs[:n] {
			reqs[j] = request(reqs[j], base+j)
		}
		if batch == 1 {
			resps[0], err = c.Call(reqs[0])
		} else {
			resps, err = c.CallBatch(reqs[:n])
		}
		if err != nil {
			return fmt.Errorf("record %d: %w", base, err)
		}
		if len(resps) != n {
			return fmt.Errorf("record %d: %d responses to %d requests", base, len(resps), n)
		}
		for j, resp := range resps {
			want = h(want[:0], reqs[j])
			if !bytes.Equal(resp, want) {
				k := 0
				for k < len(resp) && k < len(want) && resp[k] == want[k] {
					k++
				}
				return fmt.Errorf("record %d: %d-byte response differs at byte %d from the handler's %d-byte answer",
					base+j, len(resp), k, len(want))
			}
		}
	}
	return nil
}

// TestTCPCloseDrainsInFlightCall is the shutdown-drain contract: a Call
// whose request the server has already accepted must receive its
// response even when Close is invoked while the handler is still
// running — Close half-closes the connection and waits, it does not cut
// the response off mid-frame.
func TestTCPCloseDrainsInFlightCall(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	srv, err := NewTCPServer(func(dst, req []byte) []byte {
		close(entered)
		<-release
		return append(append(dst, "ok:"...), req...)
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := srv.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	type callResult struct {
		resp []byte
		err  error
	}
	callDone := make(chan callResult, 1)
	go func() {
		resp, err := conn.Call([]byte("x"))
		callDone <- callResult{resp, err}
	}()
	<-entered // the handler holds the request now

	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.Close() }()

	// Close must not return while the call is in flight.
	select {
	case <-closeDone:
		t.Fatal("Close returned before the in-flight call finished")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	select {
	case res := <-callDone:
		if res.err != nil {
			t.Fatalf("in-flight Call failed across Close: %v", res.err)
		}
		if string(res.resp) != "ok:x" {
			t.Fatalf("in-flight Call returned %q, want %q", res.resp, "ok:x")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight Call never completed")
	}
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the handler finished")
	}

	// The drained connection is dead: the next Call must fail rather
	// than hang.
	if _, err := conn.Call([]byte("y")); err == nil {
		t.Fatal("Call after Close succeeded")
	}
}

// TestTCPCloseIdempotentWithIdleConn pins that Close still returns
// promptly when connections are idle (blocked in readFrame, no request
// in flight) and that a second Close is a no-op.
func TestTCPCloseIdempotentWithIdleConn(t *testing.T) {
	srv, err := NewTCPServer(func(dst, req []byte) []byte { return append(dst, req...) })
	if err != nil {
		t.Fatal(err)
	}
	conn, err := srv.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Call([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	go func() { done <- srv.Close() }()
	go func() { done <- srv.Close() }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close blocked on an idle connection")
		}
	}
}
