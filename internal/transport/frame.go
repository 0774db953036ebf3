package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Wire format. Every frame on the socket is one length-prefixed record:
//
//	u32 payload length | payload
//
// A frame is assembled — header and payload — in a reusable arena and
// written with a single Write, so the steady-state frame path performs
// one syscall per direction and zero allocations.

// maxFrame bounds a frame's payload to keep a corrupt length prefix from
// allocating unbounded memory.
const maxFrame = 16 * 1024 * 1024

// ErrFrameTooLarge reports a frame whose length prefix exceeds the
// transport's limit. Errors returned from the read path wrap it
// together with the offending size; match with errors.Is.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

// frameArena is the reusable encode/decode state for one wire
// direction pair: a grow-only read buffer the decoded payload points
// into, a grow-only write buffer holding one fully assembled outgoing
// frame, and a scratch slice lent to handlers as their response
// destination. Arenas are pooled; after the first few frames on a
// connection the read/handle/write cycle allocates nothing.
type frameArena struct {
	in      []byte  // read buffer; the payload read aliases it until the next read
	out     []byte  // outgoing frame: header + payload
	scratch []byte  // handler response destination, recycled across calls
	hdr     [4]byte // header read scratch (kept off the stack so it never escapes per call)
}

// arenaPool is shared by every connection in the process: each TCP
// server connection's goroutine and each dialled connection take an
// arena of their own from it.
var arenaPool = sync.Pool{New: func() any { return new(frameArena) }}

func getArena() *frameArena  { return arenaPool.Get().(*frameArena) }
func putArena(a *frameArena) { arenaPool.Put(a) }

// read reads one frame into the arena's grow-only read buffer and
// returns its payload, valid until the next read on this arena —
// callers that retain it must copy it.
func (a *frameArena) read(r io.Reader) ([]byte, error) {
	if _, err := io.ReadFull(r, a.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(a.hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte limit: %w", n, maxFrame, ErrFrameTooLarge)
	}
	if cap(a.in) < int(n) {
		a.in = make([]byte, n)
	} else {
		a.in = a.in[:n]
	}
	if _, err := io.ReadFull(r, a.in); err != nil {
		return nil, err
	}
	return a.in, nil
}

// write assembles payload's frame in the arena's write buffer and
// writes it with a single Write.
func (a *frameArena) write(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte limit: %w", len(payload), maxFrame, ErrFrameTooLarge)
	}
	a.out = binary.BigEndian.AppendUint32(a.out[:0], uint32(len(payload)))
	a.out = append(a.out, payload...)
	_, err := w.Write(a.out)
	return err
}

// handle invokes the handler for one request and returns its response.
// The handler appends into the arena's recycled scratch; if it returns
// an unrelated (typically larger) buffer, the arena adopts it so the
// next call reuses the capacity.
func (a *frameArena) handle(h Handler, req []byte) []byte {
	resp := h(a.scratch[:0], req)
	if cap(resp) > cap(a.scratch) {
		a.scratch = resp
	}
	return resp
}
