package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the frame decoder the RPC
// server and client read every frame with. It must never panic: either
// it reports an error, or the payload it returns re-encodes, through
// the same arena's write, to exactly the frame it consumed. The
// committed corpus (testdata/fuzz/FuzzReadFrame) holds the lies a peer
// can tell: a length past the data and past the 16 MB limit, and frames
// cut off mid-header and mid-payload; and an empty payload and a frame
// followed by bytes of the next.
func FuzzReadFrame(f *testing.F) {
	for _, p := range []string{"", "a", "ping", "a longer record\x00\xff"} {
		var a frameArena
		var buf bytes.Buffer
		if err := a.write(&buf, []byte(p)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a := getArena()
		defer putArena(a)
		payload, err := a.read(bytes.NewReader(data))
		if err != nil {
			if len(data) >= 4 && binary.BigEndian.Uint32(data) > maxFrame && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("oversized frame: error %v does not wrap ErrFrameTooLarge", err)
			}
			return
		}
		frame := data[:4+len(payload)] // read consumed exactly this
		var out bytes.Buffer
		if err := a.write(&out, payload); err != nil {
			t.Fatalf("re-encoding a %d-byte payload: %v", len(payload), err)
		}
		if !bytes.Equal(out.Bytes(), frame) {
			t.Fatalf("decoded a payload that re-encodes to\n%x\nnot the frame read\n%x", out.Bytes(), frame)
		}
	})
}
