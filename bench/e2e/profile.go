package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile brackets phases of a run with the runtime's CPU profiler
// and folds what it sampled onto the ledger's layers. Each start/stop
// pair yields one gzip-compressed pprof protobuf; fold decodes it with
// the minimal reader below (the module has no dependency to do it).
type cpuProfile struct {
	buf    bytes.Buffer
	folded cpuFold
}

// cpuFold is CPU seconds by where the innermost attributable frame of
// each sample lives.
type cpuFold struct {
	Layer   []float64 // per layer: innermost farm/internal/<layer> frame
	GC      float64   // no such frame, and a background GC worker on the stack
	Other   float64   // the harness itself (tracing included), scheduler, syscalls
	Samples int
}

func (f *cpuFold) total() float64 {
	t := f.GC + f.Other
	for _, v := range f.Layer {
		t += v
	}
	return t
}

func (p *cpuProfile) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

// stop ends the profile and adds its samples to the fold.
func (p *cpuProfile) stop() {
	pprof.StopCPUProfile()
	if err := p.folded.add(p.buf.Bytes()); err != nil {
		// A profile the decoder cannot read is a harness bug, not a
		// measurement: the run's CPU accounting check will flag it.
		fmt.Printf("# cpu profile: %v\n", err)
	}
}

// gcWorkers are the entry points of the runtime's background GC
// goroutines; a sample below one of them is GC work no layer asked for
// synchronously.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

func (f *cpuFold) add(gz []byte) error {
	if f.Layer == nil {
		f.Layer = make([]float64, len(layers))
	}
	prof, err := decodeProfile(gz)
	if err != nil {
		return err
	}
	for _, s := range prof.samples {
		if len(s.values) < 2 {
			return errors.New("sample without a cpu value")
		}
		sec := float64(s.values[1]) / 1e9
		f.Samples += int(s.values[0])
		layer, gc := -1, false
	stack:
		for _, loc := range s.locations { // leaf first
			for _, fn := range prof.locations[loc] { // innermost inlined frame first
				if strings.HasPrefix(fn, "main.") {
					// The harness's own work below a layer's frame: the
					// tracing scheduler classifying a call site, mostly.
					break stack
				}
				if l := layerOf(fn); l >= 0 {
					layer = l
					break stack
				}
				for _, w := range gcWorkers {
					gc = gc || strings.HasPrefix(fn, w)
				}
			}
		}
		switch {
		case layer >= 0:
			f.Layer[layer] += sec
		case gc:
			f.GC += sec
		default:
			f.Other += sec
		}
	}
	return nil
}

// profile is the part of a pprof Profile message the fold needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]string // location id -> function names, innermost first
}

type profSample struct {
	locations []uint64
	values    []int64
}

// decodeProfile reads a gzip-compressed pprof protobuf (profile.proto:
// Profile.sample=2, .location=4, .function=5, .string_table=6).
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFuncs := map[uint64][]uint64{}
	p := &profile{locations: map[uint64][]string{}}

	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample: location_id=1, value=2, both repeated
			var s profSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locations = appendVarints(s.locations, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location: id=1, line=4 (Line.function_id=1)
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function: id=1, name=2
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, fns := range locFuncs {
		for _, fn := range fns {
			idx := funcName[fn]
			if idx >= uint64(len(strs)) {
				return nil, errors.New("profile: string index out of range")
			}
			p.locations[id] = append(p.locations[id], strs[idx])
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field's contents: one value
// when it arrived unpacked (b nil), all of them when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := varint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, -1
}

// eachField walks the fields of one protobuf message. fn receives the
// field number and, by wire type, the varint or fixed value (b nil) or
// the length-delimited bytes.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	bad := errors.New("profile: malformed protobuf")
	for len(msg) > 0 {
		key, n := varint(msg)
		if n <= 0 {
			return bad
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = varint(msg); n <= 0 {
				return bad
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return bad
			}
			for i := size - 1; i >= 0; i-- {
				v = v<<8 | uint64(msg[i])
			}
			msg = msg[size:]
		case 2:
			l, n := varint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return bad
			}
			b = msg[n : n+int(l)] // non-nil even when empty: a packed field with no element
			msg = msg[n+int(l):]
		default:
			return bad
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
