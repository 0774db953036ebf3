package transport

import (
	"bytes"
	"fmt"
	"testing"
)

// The transport benchmarks quantify the wire-path rebuild: the frame
// arena must run at 0 allocs/op steady state, and batched calls must
// deliver ≥5× the messages/sec of the one-record-per-round-trip
// baseline. Every benchmark reports msgs/sec so the comparison is
// direct.

const benchRecordBytes = 256

func benchPayload() []byte {
	p := make([]byte, benchRecordBytes)
	for i := range p {
		p[i] = byte(i)
	}
	return p
}

// BenchmarkTransportFrameBatch64 is the pure frame path: encode a
// 64-record batch into the arena and decode it back from memory, no
// sockets. This is the 0 allocs/op gate.
func BenchmarkTransportFrameBatch64(b *testing.B) {
	const records = 64
	w := getArena()
	r := getArena()
	defer putArena(w)
	defer putArena(r)
	payload := benchPayload()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		w.beginBatch()
		for j := 0; j < records; j++ {
			w.appendRecord(payload)
		}
		if err := w.writeTo(&buf); err != nil {
			b.Fatal(err)
		}
		recs, err := r.readBatch(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != records {
			b.Fatalf("decoded %d records", len(recs))
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
}

func benchConn(b *testing.B, srv Server, batch int) {
	b.Helper()
	conn, err := srv.Dial()
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	payload := benchPayload()
	reqs := make([][]byte, batch)
	for i := range reqs {
		reqs[i] = payload
	}
	// Warm the arenas so steady state is what gets measured.
	if _, err := conn.CallBatch(reqs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batch == 1 {
			if _, err := conn.Call(payload); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := conn.CallBatch(reqs); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
}

func benchTCP(b *testing.B, batch int) {
	b.Helper()
	srv, err := NewTCPServer(func(dst, req []byte) []byte { return append(dst, req...) })
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	benchConn(b, srv, batch)
}

// BenchmarkTransportTCPCall is the unbatched baseline: one 256-byte
// record per round trip.
func BenchmarkTransportTCPCall(b *testing.B) { benchTCP(b, 1) }

// BenchmarkTransportTCPCallBatch amortizes the round trip over a
// growing batch; msgs/sec versus BenchmarkTransportTCPCall is the
// headline speedup.
func BenchmarkTransportTCPCallBatch(b *testing.B) {
	for _, batch := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) { benchTCP(b, batch) })
	}
}

func benchSharedBuf(b *testing.B, batch int) {
	b.Helper()
	srv := NewSharedBufServer(64*1024, func(dst, req []byte) []byte { return append(dst, req...) })
	defer srv.Close()
	benchConn(b, srv, batch)
}

// BenchmarkTransportSharedBufCall / Batch64: the in-process shared
// buffer, unbatched vs batched — no syscalls, so this isolates the
// framing and copy costs.
func BenchmarkTransportSharedBufCall(b *testing.B) { benchSharedBuf(b, 1) }

func BenchmarkTransportSharedBufCallBatch64(b *testing.B) { benchSharedBuf(b, 64) }
