package core

import (
	"testing"

	"farm/internal/almanac"
)

// benchSource is a poll handler with the catalogue's typical shape: a
// tight scan over a port-stats batch with comparisons, arithmetic, and
// a couple of env writes. It deliberately sticks to the non-allocating
// runtime surface so the compiled back end can be held to 0 allocs/op.
const benchSource = `
machine Bench {
  place all;
  poll stats = Poll { .ival = 10, .what = port ANY };
  external float threshold;
  long hot;
  float acc;
  state observe {
    when (stats as recs) do {
      long n = list_len(recs);
      long i = 0;
      long hits = 0;
      float sum = 0.0;
      while (i < n) {
        float d = list_get(recs, i).dTxBytes;
        sum = sum + d;
        if (d >= threshold) then { hits = hits + 1; }
        i = i + 1;
      }
      hot = hits;
      acc = acc + sum / (n + 1);
    }
  }
}
`

func benchStats(n int) List {
	stats := make(List, 0, n)
	for i := 0; i < n; i++ {
		stats = append(stats, StructOf("PortStats", map[string]Value{
			"port":     int64(i),
			"dTxBytes": float64((i * 37) % 1900),
		}))
	}
	return stats
}

// benchScalarSource is the other common seed shape: pure scalar
// arithmetic and control flow (EWMA-style smoothing), no per-event list
// or map traffic. It isolates dispatch cost from the shared Value
// operations both executors pay identically.
const benchScalarSource = `
machine BenchS {
  place all;
  poll tick = Poll { .ival = 10, .what = port ANY };
  float ewma;
  long rounds;
  state observe {
    when (tick as v) do {
      float e = ewma;
      long i = 0;
      while (i < 64) {
        float x = i * 3.0 + 1.0;
        e = e * 0.9 + x * 0.1;
        if (e > 100.0) then { e = e / 2.0; }
        i = i + 1;
      }
      ewma = e;
      rounds = rounds + 1;
    }
  }
}
`

func benchCompile(b *testing.B, src, name string) *almanac.CompiledMachine {
	b.Helper()
	prog, err := almanac.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	cm, err := almanac.CompileMachine(prog, name)
	if err != nil {
		b.Fatal(err)
	}
	return cm
}

// BenchmarkSeedHandleTrigger is the headline seed-path number: one poll
// delivery on the interpreter baseline and on the register VM, which is
// held to the ISSUE 9 bar (>=5x over the interpreter at 0 allocs/op).
func BenchmarkSeedHandleTrigger(b *testing.B) {
	cm := benchCompile(b, benchSource, "Bench")
	stats := benchStats(48)
	for _, be := range parityBackends {
		b.Run(be, func(b *testing.B) {
			r, err := newParityRunner(be, cm, map[string]Value{"threshold": float64(1000)}, newMockHost())
			if err != nil {
				b.Fatal(err)
			}
			if err := r.Start(); err != nil {
				b.Fatal(err)
			}
			var data Value = stats // box once: the conversion is the caller's, not the engine's
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.HandleTrigger("stats", data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSeedScalarHandler measures the dispatch-bound shape: the VM's
// advantage here is bounded only by its own loop, not by shared list and
// map operations.
func BenchmarkSeedScalarHandler(b *testing.B) {
	cm := benchCompile(b, benchScalarSource, "BenchS")
	for _, be := range parityBackends {
		b.Run(be, func(b *testing.B) {
			r, err := newParityRunner(be, cm, nil, newMockHost())
			if err != nil {
				b.Fatal(err)
			}
			if err := r.Start(); err != nil {
				b.Fatal(err)
			}
			var data Value = int64(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.HandleTrigger("tick", data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
