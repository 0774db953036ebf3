package engine

import (
	"runtime"
	"testing"
	"time"
)

// BenchmarkSerialTickerStorm is the regime the pooled wheel exists for:
// a large population of periodic timers re-arming forever, the shape of
// the fabric's steady state (every switch polling counters, every seed
// on its interval). Setup and warm-up are outside the timer; the
// measured region is pure steady-state firing. On the wheel a re-arm
// reuses the ticker's one held event in place, so the measured loop
// must run at 0 B/op; the heap reference runs the generic re-arm ticker
// (a timer handle per fire).
func BenchmarkSerialTickerStorm(b *testing.B) {
	for _, mode := range serialModes {
		b.Run(mode.name, func(b *testing.B) {
			l := mode.mk()
			const tickers = 1024
			for i := 0; i < tickers; i++ {
				interval := time.Duration(100+i%400) * time.Microsecond
				l.Every(interval, func() {})
			}
			l.RunFor(2 * time.Second) // converge cur's capacity
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.RunFor(time.Millisecond)
			}
		})
	}
}

// BenchmarkSerialAtStop measures one-shot churn with heavy
// cancellation: arm a batch, cancel half, drain. This exercises the
// pooled free list, lazy compaction, and wheel placement across the
// near levels.
func BenchmarkSerialAtStop(b *testing.B) {
	for _, mode := range serialModes {
		b.Run(mode.name, func(b *testing.B) {
			l := mode.mk()
			var timers [256]Timer
			l.RunFor(time.Millisecond) // move off t=0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range timers {
					d := time.Duration(1+(i+j)%500) * time.Microsecond
					timers[j] = l.After(d, func() {})
				}
				for j := 0; j < len(timers); j += 2 {
					timers[j].Stop()
				}
				l.RunFor(600 * time.Microsecond)
			}
		})
	}
}
