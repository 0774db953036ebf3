package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzReadBatch feeds arbitrary bytes to the batch decoder the RPC
// server and client read every frame with. It must never panic: either
// it reports an error, or the records it returns re-encode, through the
// same arena's beginBatch/appendRecord/writeTo, to exactly the frame it
// consumed. The committed corpus (testdata/fuzz/FuzzReadBatch) holds
// the lies a peer can tell: a body length past the data, past the
// 16 MB limit and short of the count, a record count past what the body
// can hold, a record length past the body, and frames cut off mid-
// header and mid-record.
func FuzzReadBatch(f *testing.F) {
	for _, recs := range [][]string{nil, {""}, {"a"}, {"ping", "", "a longer record\x00\xff"}} {
		var a frameArena
		a.beginBatch()
		for _, r := range recs {
			a.appendRecord([]byte(r))
		}
		var buf bytes.Buffer
		if err := a.writeTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a := getArena()
		defer putArena(a)
		recs, err := a.readBatch(bytes.NewReader(data))
		if err != nil {
			if len(data) >= 4 && binary.BigEndian.Uint32(data) > maxFrame && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("oversized frame: error %v does not wrap ErrFrameTooLarge", err)
			}
			return
		}
		frame := data[:4+binary.BigEndian.Uint32(data)] // readBatch consumed exactly this
		a.beginBatch()
		for _, r := range recs {
			a.appendRecord(r)
		}
		var out bytes.Buffer
		if err := a.writeTo(&out); err != nil {
			t.Fatalf("re-encoding %d decoded records: %v", len(recs), err)
		}
		if !bytes.Equal(out.Bytes(), frame) {
			t.Fatalf("decoded %d records that re-encode to\n%x\nnot the frame read\n%x", len(recs), out.Bytes(), frame)
		}
	})
}
