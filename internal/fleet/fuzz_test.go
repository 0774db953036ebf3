package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"farm/internal/tasks"
)

// fuzzService is the in-process service the server-side fuzzers share:
// no listeners, no traffic, one spine and two leaves. Inputs share it, so
// a submit leaves its task live for the inputs after it.
func fuzzService(f *testing.F) *Service {
	s := startService(f, Config{Spines: 1, Leaves: 2, HostsPerLeaf: 2, HeartbeatInterval: 10 * time.Millisecond})
	waitReady(f, s, 2*time.Second)
	return s
}

// FuzzHandleRPC feeds arbitrary bytes to the operator RPC's request
// handler, as the TCP server would hand it a request record: the handler
// must not panic, and whatever it answers must decode as a response, an
// error response saying why for anything it cannot serve. The committed
// corpus has every op, malformed JSON and unknown ops.
func FuzzHandleRPC(f *testing.F) {
	s := fuzzService(f)
	var dst []byte // the connection-local scratch the server reuses
	f.Fuzz(func(t *testing.T, req []byte) {
		out := s.handleRPC(dst, req)
		var resp rpcResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatalf("request %q: response %q does not decode: %v", req, out, err)
		}
		if !resp.OK && resp.Err == "" {
			t.Fatalf("request %q: error response %q without an error", req, out)
		}
		dst = out[:0]
	})
}

// replyConn answers every call with one fixed record, as a server — or
// a corrupted wire — might.
type replyConn struct{ reply []byte }

func (c replyConn) Call([]byte) ([]byte, error) { return c.reply, nil }
func (c replyConn) Close() error                { return nil }

// FuzzClientResponse feeds arbitrary bytes to the RPC client as the
// server's answer to a status call: the client must not panic, a record
// that does not decode is a "bad response" error, a refusal is an error
// saying something (retryable exactly when the record says so), and a
// success hands back a snapshot. The committed corpus has a full status,
// success without a status, refusals with and without a reason, and
// malformed records.
func FuzzClientResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		c := &Client{conn: replyConn{raw}}
		st, err := c.Status()
		var resp rpcResponse
		if json.Unmarshal(raw, &resp) != nil {
			if err == nil || !strings.Contains(err.Error(), "bad response") {
				t.Fatalf("response %q does not decode, but Status returned %v", raw, err)
			}
			return
		}
		switch {
		case err == nil && st == nil:
			t.Fatalf("response %q: Status returned neither a snapshot nor an error", raw)
		case !resp.OK && (err == nil || err.Error() == ""):
			t.Fatalf("refusal %q: Status returned %v, want an error that says something", raw, err)
		case !resp.OK && IsRetryable(err) != resp.Retryable:
			t.Fatalf("refusal %q: IsRetryable = %v, want %v", raw, IsRetryable(err), resp.Retryable)
		}
	})
}

// FuzzTaskSubmitBody feeds arbitrary bytes to POST /tasks as the request
// body: the handler must not panic and always answers with a one-key
// JSON object — on 200 "submitted" naming a catalogue task, otherwise
// "error" with a 4xx/5xx code. The committed corpus has a proper body,
// unknown and empty names, wrong types, trailing data and malformed
// JSON.
func FuzzTaskSubmitBody(f *testing.F) {
	s := fuzzService(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		s.handleTaskSubmit(w, httptest.NewRequest(http.MethodPost, "/tasks", bytes.NewReader(body)))
		var out map[string]string
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil || len(out) != 1 {
			t.Fatalf("body %q: answer %q is not a one-key JSON object (%v)", body, w.Body.Bytes(), err)
		}
		if w.Code == http.StatusOK {
			if _, err := tasks.ByName(out["submitted"]); err != nil {
				t.Fatalf("body %q: 200 answer %v does not name a catalogue task", body, out)
			}
			return
		}
		if w.Code < 400 || out["error"] == "" {
			t.Fatalf("body %q: %d %v, want an error status and message", body, w.Code, out)
		}
	})
}
