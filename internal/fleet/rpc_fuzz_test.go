package fleet

import (
	"encoding/json"
	"testing"
	"time"
)

// FuzzHandleRPC feeds arbitrary bytes to the operator RPC's request
// handler on one in-process service (no listeners, no traffic, one
// spine and two leaves), as the TCP server would hand it a request
// record: the handler must not panic, and whatever it answers must
// decode as a response, an error response saying why for anything it
// cannot serve. The committed corpus has every op, malformed JSON and
// unknown ops. Inputs share the service, so a submit leaves its task
// live for the inputs after it.
func FuzzHandleRPC(f *testing.F) {
	s := startService(f, Config{Spines: 1, Leaves: 2, HostsPerLeaf: 2, HeartbeatInterval: 10 * time.Millisecond})
	waitReady(f, s, 2*time.Second)
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
