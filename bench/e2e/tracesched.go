package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"time"

	"farm/internal/engine"
)

// The layers of the ledger are the module names under farm/internal.
// Helper packages are folded into the layer that owns their work, or
// skipped so the charge falls through to their caller.
var layers = []string{
	"engine", "traffic", "netmodel", "fabric", "dataplane", "soil", "core",
	"almanac", "placement", "seeder", "harvest", "transport", "fleet",
}

var layerIndex = func() map[string]int {
	m := map[string]int{}
	for i, l := range layers {
		m[l] = i
	}
	return m
}()

// layerAlias maps packages that are not layers of their own onto the
// layer they work for. Packages in neither table (metrics, sketch,
// poly, mlwork) are transparent: the charge goes to their caller.
var layerAlias = map[string]string{
	"lp":    "placement",
	"tasks": "harvest", // the catalogue's harvester logics
}

const internalPrefix = "farm/internal/"

// layerOf maps a fully qualified function name to the index of its
// layer, or -1 when the function belongs to none.
func layerOf(fn string) int {
	if !strings.HasPrefix(fn, internalPrefix) {
		return -1
	}
	pkg := fn[len(internalPrefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	if a, ok := layerAlias[pkg]; ok {
		pkg = a
	}
	if i, ok := layerIndex[pkg]; ok {
		return i
	}
	return -1
}

// span is one fired callback: the layer that scheduled it, when it ran
// (host time since the trace was reset), and the span that was running
// when it was scheduled (-1 when scheduled from outside any callback).
type span struct {
	Layer  int
	Start  time.Duration
	End    time.Duration
	ID     int
	Parent int
}

// maxKeptSpans bounds the spans kept for --trace-out; the per-layer
// totals always cover every span.
const maxKeptSpans = 200_000

// unitTrace is what the tracing scheduler saw during one timed window.
type unitTrace struct {
	Events []uint64  // fired callbacks per layer
	SpanS  []float64 // host seconds inside those callbacks, per layer
	SelfS  float64   // window wall minus every span: queue push, pop, sort
	Spans  []span    // the first maxKeptSpans spans, when the scheduler keeps them
}

// traceSched is the benchmark's own scheduler: it wraps engine.Serial,
// tags every scheduled callback with the farm/internal layer of its
// scheduling call site, and records a span when the callback fires.
// It is the only tracing in the ledger that sees inside a run, and it
// does so from outside: no internal package knows it exists. Firing
// order is the inner scheduler's, because every call is forwarded in
// the order it arrives.
type traceSched struct {
	inner engine.Scheduler
	// site caches call-site classification per return PC: a layer
	// index, or siteSkip for frames to look through (the engine's own
	// helpers, this wrapper, unattributed packages).
	site map[uintptr]int
	// keepSpans keeps individual spans (for --trace-out) beside the
	// per-layer totals.
	keepSpans bool

	t0      time.Time
	events  []uint64
	spanDur []time.Duration
	spans   []span
	nextID  int
	current int // span being fired, -1 outside callbacks
}

const siteSkip = -2

func newTraceSched(inner engine.Scheduler) *traceSched {
	t := &traceSched{inner: inner, site: map[uintptr]int{}}
	t.reset()
	return t
}

// reset drops everything recorded so far; the harness calls it after
// the warm-up so the trace covers the timed window only.
func (t *traceSched) reset() {
	t.t0 = time.Now()
	t.events = make([]uint64, len(layers))
	t.spanDur = make([]time.Duration, len(layers))
	t.spans = nil
	t.nextID = 0
	t.current = -1
}

func (t *traceSched) take(wallS float64) *unitTrace {
	ut := &unitTrace{Events: t.events, SpanS: make([]float64, len(layers)), Spans: t.spans}
	var total time.Duration
	for i, d := range t.spanDur {
		ut.SpanS[i] = d.Seconds()
		total += d
	}
	ut.SelfS = wallS - total.Seconds()
	return ut
}

// callerLayer classifies the call site that is scheduling right now:
// the innermost frame above the wrapper that belongs to a layer other
// than the engine (engine.ScheduleOn and the ticker helpers schedule on
// behalf of their callers).
func (t *traceSched) callerLayer() int {
	var pcs [12]uintptr
	// Unwinding is what tracing costs most, and the answer is almost
	// always in the first frames (the caller, or an engine helper and
	// its caller): look at three, and at all twelve only if they were
	// all transparent. Callers skips itself, callerLayer and the
	// wrapper method.
	for _, depth := range []int{3, len(pcs)} {
		n := runtime.Callers(3, pcs[:depth])
		for _, pc := range pcs[:n] {
			l, ok := t.site[pc]
			if !ok {
				l = classifyPC(pc)
				t.site[pc] = l
			}
			if l != siteSkip {
				return l
			}
		}
	}
	return layerIndex["engine"]
}

// classifyPC expands one return PC (inlined frames included, innermost
// first) and returns the first attributable layer, or siteSkip.
func classifyPC(pc uintptr) int {
	frames := runtime.CallersFrames([]uintptr{pc})
	for {
		f, more := frames.Next()
		if l := layerOf(f.Function); l >= 0 && layers[l] != "engine" {
			return l
		}
		if !more {
			return siteSkip
		}
	}
}

// wrap returns fn with a span recorded around it.
func (t *traceSched) wrap(layer int, fn func()) func() {
	parent := t.current
	return func() {
		id := t.nextID
		t.nextID++
		outer := t.current
		t.current = id
		start := time.Now()
		fn()
		end := time.Now()
		t.current = outer
		t.events[layer]++
		t.spanDur[layer] += end.Sub(start)
		if t.keepSpans && len(t.spans) < maxKeptSpans {
			t.spans = append(t.spans, span{
				Layer: layer, Start: start.Sub(t.t0), End: end.Sub(t.t0), ID: id, Parent: parent,
			})
		}
	}
}

func (t *traceSched) Now() time.Duration { return t.inner.Now() }

func (t *traceSched) At(at time.Duration, fn func()) engine.Timer {
	return t.inner.At(at, t.wrap(t.callerLayer(), fn))
}

func (t *traceSched) After(d time.Duration, fn func()) engine.Timer {
	return t.inner.After(d, t.wrap(t.callerLayer(), fn))
}

func (t *traceSched) Every(interval time.Duration, fn func()) engine.Ticker {
	return t.inner.Every(interval, t.wrap(t.callerLayer(), fn))
}

func (t *traceSched) Pending() int               { return t.inner.Pending() }
func (t *traceSched) Step() bool                 { return t.inner.Step() }
func (t *traceSched) RunUntil(at time.Duration)  { t.inner.RunUntil(at) }
func (t *traceSched) RunFor(d time.Duration)     { t.inner.RunFor(d) }
func (t *traceSched) Drain(limit int) int        { return t.inner.Drain(limit) }
func (t *traceSched) Shards() int                { return 1 }
func (t *traceSched) Shard(int) engine.Scheduler { return t }

// CrossAfter is how the fabric schedules packet hops and control-link
// deliveries; on one shard it is After.
func (t *traceSched) CrossAfter(_, _ int, d time.Duration, fn func()) {
	t.inner.After(d, t.wrap(t.callerLayer(), fn))
}

// writeChromeTrace writes spans as a Chrome trace-event file
// (chrome://tracing, Perfetto): one complete event per fired callback,
// named after the layer that scheduled it.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: layers[s.Layer], Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: 1, Args: map[string]int{"id": s.ID, "parent": s.Parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
