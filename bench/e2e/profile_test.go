package main

import (
	"testing"
	"time"

	"farm/internal/almanac"
	"farm/internal/tasks"
)

// A real CPU profile of work done inside one layer must decode, and the
// fold must charge that layer.
func TestProfileFoldChargesTheLayer(t *testing.T) {
	var p cpuProfile
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	src := tasks.HHSource
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		if _, err := almanac.Parse(src); err != nil {
			t.Fatal(err)
		}
	}
	p.stop()
	f := p.folded
	if f.Samples < 10 {
		t.Fatalf("profile has %d samples", f.Samples)
	}
	// Not every sample reaches a layer frame (under the race detector
	// the unwinder stops at its runtime), but those that do reach this
	// one.
	for i, sec := range f.Layer {
		if layers[i] == "almanac" && sec < 0.05 {
			t.Errorf("almanac charged %.3fs of %.3fs: %+v", sec, f.total(), f)
		}
		if layers[i] != "almanac" && sec > 0 {
			t.Errorf("%s charged %.3fs for work done in almanac", layers[i], sec)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decodeProfile accepted garbage")
	}
}
