package transport

import (
	"testing"
)

// The transport benchmarks measure one 256-byte record per round trip
// on each transport; TestFrameCycleAllocFree pins the same paths at
// 0 allocs/op. Every benchmark reports msgs/sec so the two transports
// compare directly.

const benchRecordBytes = 256

func benchConn(b *testing.B, srv Server) {
	b.Helper()
	conn, err := srv.Dial()
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	payload := make([]byte, benchRecordBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Warm the arenas so steady state is what gets measured.
	if _, err := conn.Call(payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Call(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
}

// BenchmarkTransportTCPCall: one record per round trip over TCP
// loopback, the socket RPC of Fig. 10.
func BenchmarkTransportTCPCall(b *testing.B) {
	srv, err := NewTCPServer(func(dst, req []byte) []byte { return append(dst, req...) })
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	benchConn(b, srv)
}

// BenchmarkTransportSharedBufCall: the in-process shared buffer — no
// syscalls, so this isolates the copy and handler costs.
func BenchmarkTransportSharedBufCall(b *testing.B) {
	srv := NewSharedBufServer(64*1024, func(dst, req []byte) []byte { return append(dst, req...) })
	defer srv.Close()
	benchConn(b, srv)
}
