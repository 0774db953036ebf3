package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// A submit body far beyond httpMaxBodyBytes is refused as soon as the
// limit is crossed — the client here has sent 1 % of the 10 MB it
// announced and sends no more until it has its answer — with the JSON
// error shape every other refusal uses, and nothing is submitted.
func TestHTTPSubmitBodyBounded(t *testing.T) {
	s := startService(t, testConfig())
	waitReady(t, s, 2*time.Second)
	conn, err := net.Dial("tcp", s.HTTPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	const announced = 10 << 20
	fmt.Fprintf(conn, "POST /tasks HTTP/1.1\r\nHost: fleet\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", announced)
	if _, err := io.WriteString(conn, `{"name":"`+strings.Repeat("h", announced/100)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no answer to an oversized body the client has not finished sending: %v", err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("answer is not JSON: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(body["error"], "exceeds") {
		t.Fatalf("oversized body: %d %v, want 413 and an error", resp.StatusCode, body)
	}
	if !resp.Close {
		t.Fatal("the server means to keep reading the connection of a body it refused")
	}
	if st, err := s.Status(); err != nil || len(st.Tasks) != 0 {
		t.Fatalf("status after a refused submit: %+v, %v", st, err)
	}

	// Malformed and empty bodies are still 400, a name outside the
	// catalogue is 404, a proper one still 200.
	for payload, want := range map[string]int{
		`{"name":`: http.StatusBadRequest, `{}`: http.StatusBadRequest,
		`{"name":"no-such-task"}`: http.StatusNotFound, `{"name":"hh"}`: http.StatusOK,
	} {
		r, err := http.Post("http://"+s.HTTPAddr()+"/tasks", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Fatalf("POST /tasks %s: %d, want %d", payload, r.StatusCode, want)
		}
	}
	http.DefaultClient.CloseIdleConnections()
}

// A client that opens a connection and never finishes its request
// headers is disconnected after httpReadHeaderTimeout; one that does
// finish them is served on the same listener meanwhile.
func TestHTTPSlowHeadersDisconnected(t *testing.T) {
	defer func(d time.Duration) { httpReadHeaderTimeout = d }(httpReadHeaderTimeout)
	httpReadHeaderTimeout = 100 * time.Millisecond
	s := startService(t, testConfig())
	waitReady(t, s, 2*time.Second)
	conn, err := net.Dial("tcp", s.HTTPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: fleet\r\nX-Stalled: ")
	start := time.Now()

	client := &http.Client{}
	defer client.CloseIdleConnections()
	if code := httpGet(t, client, "http://"+s.HTTPAddr()+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz beside a stalled client: %d", code)
	}

	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	n, err := conn.Read(make([]byte, 64))
	if ne, timedOut := err.(net.Error); err == nil || n != 0 || (timedOut && ne.Timeout()) {
		t.Fatalf("stalled client read %d bytes, %v; want the server to have closed the connection", n, err)
	}
	if waited := time.Since(start); waited < httpReadHeaderTimeout/2 {
		t.Fatalf("disconnected after %v, before the header timeout", waited)
	}
}
