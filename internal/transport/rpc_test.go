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
	w := getArena()
	r := getArena()
	defer putArena(w)
	defer putArena(r)
	var buf bytes.Buffer
	payloads := [][]byte{[]byte(""), []byte("a"), bytes.Repeat([]byte("z"), 100000)}
	for _, p := range payloads {
		if err := w.write(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range payloads {
		got, err := r.read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame corrupted: %d vs %d bytes", len(got), len(p))
		}
	}
}

func TestFrameRejectsOversized(t *testing.T) {
	a := getArena()
	defer putArena(a)
	_, err := a.read(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF}))
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if want := fmt.Sprintf("frame of %d bytes", uint32(0xFFFFFFFF)); !strings.Contains(err.Error(), want) {
		t.Fatalf("err %q does not name the offending size %q", err, want)
	}
}

// TestFrameCycleAllocFree pins the steady-state wire path at zero
// allocations: a frame written and read back through one arena, a TCP
// Call (both the client's and the server's half of the round trip) and
// a shared-buffer Call.
func TestFrameCycleAllocFree(t *testing.T) {
	payload := bytes.Repeat([]byte("p"), 256)
	a := getArena()
	defer putArena(a)
	var buf bytes.Buffer
	frame := func() {
		buf.Reset()
		if err := a.write(&buf, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := a.read(&buf); err != nil {
			t.Fatal(err)
		}
	}
	call := func(srv Server) func() {
		c, err := srv.Dial()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return func() {
			if _, err := c.Call(payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	tcp, err := NewTCPServer(echoUpper)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcp.Close() })
	for _, tc := range []struct {
		name  string
		cycle func()
	}{
		{"frame", frame},
		{"tcp", call(tcp)},
		{"sharedbuf", call(NewSharedBufServer(1024, echoUpper))},
	} {
		tc.cycle() // grow the arenas
		if allocs := testing.AllocsPerRun(100, tc.cycle); allocs != 0 {
			t.Errorf("%s: %v allocations per call in steady state, want 0", tc.name, allocs)
		}
	}
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

// TestTCPCallConcurrent drives calls from several connections at once
// and checks every response against the handler's answer to its
// request: per-connection arenas must not bleed into each other through
// the shared pool. The wire-path case is 10 000 seeds over 4
// connections, 8 records of 256 bytes per seed, one record per round
// trip.
func TestTCPCallConcurrent(t *testing.T) {
	cases := []struct {
		name    string
		handler Handler
		// conns connections each send records requests.
		conns, records int
		request        func(buf []byte, conn, i int) []byte
	}{
		{"echo", echoUpper, 8, 360, func(buf []byte, conn, i int) []byte {
			return fmt.Appendf(buf[:0], "c%d-m%d", conn, i)
		}},
		{"wire-path", flipBytes, 4, 20_000, seedRecord},
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
					if err := driveConn(srv, tc.handler, tc.records, func(buf []byte, i int) []byte {
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

// driveConn sends records requests on one new connection of srv, one
// per call, and compares each response with h's answer to its request.
func driveConn(srv Server, h Handler, records int, request func(buf []byte, i int) []byte) error {
	c, err := srv.Dial()
	if err != nil {
		return err
	}
	defer c.Close()
	var req, want []byte
	for i := 0; i < records; i++ {
		req = request(req, i)
		resp, err := c.Call(req)
		if err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		want = h(want[:0], req)
		if !bytes.Equal(resp, want) {
			k := 0
			for k < len(resp) && k < len(want) && resp[k] == want[k] {
				k++
			}
			return fmt.Errorf("record %d: %d-byte response differs at byte %d from the handler's %d-byte answer",
				i, len(resp), k, len(want))
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
// promptly when connections are idle (blocked in a read, no request
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
