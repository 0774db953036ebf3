package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"farm/internal/engine"
)

// unitSample is what one unit contributes: one sample of every
// per-unit end-to-end metric, and the counts its layers reported.
type unitSample struct {
	BuildS float64 // build fabric + compile + place + deploy
	SetupS float64 // BuildS plus the warm-up: nothing to ready-to-time
	WallS  float64 // timed window, host seconds
	CPUS   float64 // process user+sys CPU over the timed window
	Allocs uint64  // runtime.MemStats.Mallocs over the timed window

	GCCycles   uint32  // completed GC cycles during the window
	AllocMB    float64 // bytes allocated during the window
	HeapLiveMB float64 // live heap of the warmed unit, after the pre-window GC

	Counts counts
	Trace  *unitTrace // nil unless the unit ran on the tracing scheduler
}

// cpuSeconds returns the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's resident-set high-water mark
// (ru_maxrss, the VmHWM quantity; kilobytes on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// tracer is the state of a traced run: one CPU-profile fold for the
// build phases of its traced units and one for their timed windows.
type tracer struct {
	setup, window cpuProfile
	windowCPUS    float64 // process CPU (getrusage) over the profiled windows
	// wantSpans asks the next traced unit to keep its individual spans
	// (--trace-out); one unit's worth is kept, not every unit's.
	wantSpans bool
}

// runUnit builds one fresh unit from the seed, warms it up, and times
// its virtual window. With tr set the unit runs on the tracing
// scheduler, its spans come back in the sample, and its build and its
// window are CPU-profiled into tr.
func runUnit(spec simSpec, seed int64, tr *tracer) (unitSample, error) {
	var s unitSample
	var sched engine.Scheduler = engine.NewSerial()
	var ts *traceSched
	if tr != nil {
		ts = newTraceSched(sched)
		ts.keepSpans, tr.wantSpans = tr.wantSpans, false
		sched = ts
		if err := tr.setup.start(); err != nil {
			return s, err
		}
	}

	t0 := time.Now()
	u, err := spec.build(seed, sched)
	s.BuildS = time.Since(t0).Seconds()
	if tr != nil {
		tr.setup.stop()
	}
	if err != nil {
		return s, fmt.Errorf("%s: build: %w", spec.name, err)
	}
	defer u.stop()
	if err := u.check(); err != nil {
		return s, fmt.Errorf("%s: %w", spec.name, err)
	}

	w0 := time.Now()
	sched.RunFor(warmup)
	s.SetupS = s.BuildS + time.Since(w0).Seconds()
	runtime.GC()
	if ts != nil {
		ts.reset()
	}

	before := u.read()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if tr != nil {
		if err := tr.window.start(); err != nil {
			return s, err
		}
	}
	c0 := cpuSeconds()
	w0 = time.Now()
	sched.RunFor(spec.window)
	s.WallS = time.Since(w0).Seconds()
	s.CPUS = cpuSeconds() - c0
	if tr != nil {
		tr.windowCPUS += s.CPUS
		tr.window.stop()
	}
	runtime.ReadMemStats(&m1)
	s.Allocs = m1.Mallocs - m0.Mallocs
	s.GCCycles = m1.NumGC - m0.NumGC
	s.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	s.HeapLiveMB = float64(m0.HeapAlloc) / 1e6
	s.Counts = u.read().sub(before)
	if ts != nil {
		s.Trace = ts.take(s.WallS)
	}
	return s, nil
}
