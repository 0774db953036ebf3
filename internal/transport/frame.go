package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Wire format. Every frame on the socket is one length-prefixed batch:
//
//	u32 body length | u32 record count | count × (u32 record length, record bytes)
//
// A classic single-record call is a batch of one. The whole frame —
// outer header, count, record headers, payloads — is assembled in a
// reusable arena and written with a single Write, so the steady-state
// frame path performs one syscall per direction and zero allocations.

// maxFrame bounds a frame body to keep a corrupt length prefix from
// allocating unbounded memory.
const maxFrame = 16 * 1024 * 1024

// ErrFrameTooLarge reports a frame whose length prefix exceeds the
// transport's limit. Errors returned from the read path wrap it
// together with the offending size; match with errors.Is.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

// errMalformedBatch reports a batch body whose record headers do not
// add up to the body length.
var errMalformedBatch = errors.New("transport: malformed batch frame")

// writeFrame writes one raw length-prefixed blob. It is the allocation-
// tolerant helper for cold paths and tests; the hot path assembles
// frames in a frameArena instead.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one raw length-prefixed blob into a fresh buffer.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	return readFrameInto(r, nil, &hdr)
}

// readFrameInto reads one raw length-prefixed blob, reusing buf's
// backing storage when it is large enough (grow-only arena idiom).
// hdr is caller-provided scratch so the hot path does not allocate it
// per read (a stack array passed to io.ReadFull escapes).
func readFrameInto(r io.Reader, buf []byte, hdr *[4]byte) ([]byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte limit: %w", n, maxFrame, ErrFrameTooLarge)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// frameArena is the reusable encode/decode state for one wire
// direction pair: a grow-only read buffer the decoded record views
// point into, a grow-only write buffer holding one fully assembled
// outgoing frame, and a scratch slice lent to handlers as their
// response destination. Arenas are pooled; after the first few frames
// on a connection the read/append/write cycle allocates nothing.
type frameArena struct {
	in      []byte   // read buffer; record views alias it until the next readBatch
	recs    [][]byte // decoded record views into in
	out     []byte   // outgoing frame: outer header + count + records
	outN    int      // records appended to out since beginBatch
	scratch []byte   // handler response destination, recycled across calls
	hdr     [4]byte  // header read scratch (kept off the stack so it never escapes per call)
}

// arenaPool is shared by every connection in the process: each TCP
// server connection's goroutine and each dialled connection take an
// arena of their own from it.
var arenaPool = sync.Pool{New: func() any { return new(frameArena) }}

func getArena() *frameArena  { return arenaPool.Get().(*frameArena) }
func putArena(a *frameArena) { arenaPool.Put(a) }

// readBatch reads one batch frame and returns its record views. The
// views (and the slice holding them) are valid until the next
// readBatch on this arena — callers that retain a record must copy it.
func (a *frameArena) readBatch(r io.Reader) ([][]byte, error) {
	buf, err := readFrameInto(r, a.in, &a.hdr)
	if err != nil {
		return nil, err
	}
	a.in = buf
	if len(buf) < 4 {
		return nil, errMalformedBatch
	}
	count := int(binary.BigEndian.Uint32(buf))
	rest := buf[4:]
	if count < 0 || count > len(rest)/4+1 {
		return nil, errMalformedBatch
	}
	a.recs = a.recs[:0]
	for i := 0; i < count; i++ {
		if len(rest) < 4 {
			return nil, errMalformedBatch
		}
		l := int(binary.BigEndian.Uint32(rest))
		rest = rest[4:]
		if l < 0 || l > len(rest) {
			return nil, errMalformedBatch
		}
		a.recs = append(a.recs, rest[:l:l])
		rest = rest[l:]
	}
	if len(rest) != 0 {
		return nil, errMalformedBatch
	}
	return a.recs, nil
}

// beginBatch resets the write buffer, reserving the outer header and
// record count (patched by writeTo).
func (a *frameArena) beginBatch() {
	if cap(a.out) < 8 {
		a.out = make([]byte, 8, 512)
	} else {
		a.out = a.out[:8]
	}
	a.outN = 0
}

// appendRecord copies one record into the open batch.
func (a *frameArena) appendRecord(rec []byte) {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(rec)))
	a.out = append(a.out, l[:]...)
	a.out = append(a.out, rec...)
	a.outN++
}

// writeTo patches the headers and writes the assembled frame with a
// single Write.
func (a *frameArena) writeTo(w io.Writer) error {
	body := len(a.out) - 4
	if body > maxFrame {
		return fmt.Errorf("transport: batch of %d bytes exceeds the %d-byte limit: %w", body, maxFrame, ErrFrameTooLarge)
	}
	binary.BigEndian.PutUint32(a.out[0:4], uint32(body))
	binary.BigEndian.PutUint32(a.out[4:8], uint32(a.outN))
	_, err := w.Write(a.out)
	return err
}

// handle invokes the handler for one request record and appends its
// response to the open batch. The handler appends into the arena's
// recycled scratch; if it returns an unrelated (typically larger)
// buffer, the arena adopts it so the next call reuses the capacity.
func (a *frameArena) handle(h Handler, req []byte) {
	resp := h(a.scratch[:0], req)
	if cap(resp) > cap(a.scratch) {
		a.scratch = resp
	}
	a.appendRecord(resp)
}
