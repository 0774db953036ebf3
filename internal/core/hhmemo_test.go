package core

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"farm/internal/dataplane"
)

// getHH on a poll batch is answered once per (batch, threshold) and, when
// the hitters have not moved since the previous completion, with the list
// that completion handed out. These tests hold that memo to a fresh scan
// and to the interpreter, and pin what it saves.

// hhStream is one poll group's completions: n ports whose per-interval
// transmit bytes are redrawn now and then, so hitter sets repeat for a
// while and then change.
type hhStream struct {
	rng   *rand.Rand
	ports []int
	cur   []dataplane.PortStats
	rate  []uint64
	prev  *Batch
}

func newHHStream(rng *rand.Rand, n int) *hhStream {
	s := &hhStream{rng: rng, ports: make([]int, n), cur: make([]dataplane.PortStats, n), rate: make([]uint64, n)}
	for i := range s.ports {
		s.ports[i] = i + 1
	}
	return s
}

func (s *hhStream) next() *Batch {
	for i := range s.rate {
		if s.rate[i] == 0 || s.rng.Intn(8) == 0 {
			s.rate[i] = []uint64{1, 100, 999, 1000, 1001, 2000, 20000}[s.rng.Intn(7)]
		}
		s.cur[i].TxBytes += s.rate[i]
		s.cur[i].RxBytes += uint64(s.rng.Intn(5000))
	}
	s.prev = NewPortStatsBatch(s.ports, s.cur, s.prev)
	return s.prev
}

// vmGetHH calls the register VM's getHH native on a batch.
func vmGetHH(t *testing.T, b *Batch, th rval) List {
	t.Helper()
	r, ok, err := nvGetHH(nil, []rval{{k: rkBatch, ref: b}, th}, 0)
	if !ok || err != nil {
		t.Fatalf("getHH native refused a port batch: ok=%v err=%v", ok, err)
	}
	return r.ref.(List)
}

// sameBacking reports whether two lists are the one list handed out.
func sameBacking(a, b List) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// TestGetHHMemoParity runs random completion streams — empty batches
// included — through getHH at integer, float, negative, infinite and NaN
// thresholds, with the threshold raised mid-stream (as the hh harvester
// does, 1 M to 2 M), two thresholds alternating on one batch, several
// subscribers per completion and a batch held back and scanned several
// completions later. Every answer must equal a fresh scan of the batch
// and the interpreter's getHH on the batch's materialised list; an
// unchanged answer must be the list handed out before; and every list a
// caller kept must read the same when the stream is over.
func TestGetHHMemoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	type kept struct {
		l    List
		text string
	}
	var keptLists []kept
	thresholds := [][2]rval{
		{rint(1000), rint(2000)},
		{rfloat(999.5), rint(-1)},
		{rfloat(math.NaN()), rfloat(math.Inf(1))},
		{rint(0), rfloat(math.Inf(-1))},
		{rfloat(1001), rfloat(1001)},
	}
	checks, reused := 0, 0
	for stream := 0; stream < 60; stream++ {
		s := newHHStream(rng, []int{0, 1, 5, 12}[stream%4])
		pair := thresholds[stream%len(thresholds)]
		last := map[uint64]List{} // per threshold, the answer the previous completion gave
		var held *Batch
		for c := 0; c < 80; c++ {
			b := s.next()
			if c == 40 { // the harvester raises the threshold
				if f, _ := asFloatR(pair[0]); pair[0].k == rkInt {
					pair[0] = rint(2 * pair[0].i)
				} else {
					pair[0] = rfloat(2 * f)
				}
			}
			if held == nil || rng.Intn(10) == 0 {
				held = b
			}
			subs := 1 + rng.Intn(4)
			for sub := 0; sub < subs; sub++ {
				for k, th := range pair {
					if stream%2 == 1 && k == 1 && sub > 0 {
						break // one subscriber on the second threshold: alternation on the first call only
					}
					f, _ := asFloatR(th)
					got := vmGetHH(t, b, th)
					fresh, _ := hhRecords{b: b}.hitters(f)
					ref, err := biGetHH(nil, []Value{b.List(), th.box()}, 0)
					if err != nil {
						t.Fatal(err)
					}
					if !Equal(got, fresh) || !Equal(got, ref) {
						t.Fatalf("stream %d completion %d threshold %v: getHH = %s, fresh scan %s, interpreter %s",
							stream, c, f, FormatValue(got), FormatValue(fresh), FormatValue(ref))
					}
					key := math.Float64bits(f)
					if prev, ok := last[key]; ok && Equal(prev, got) {
						if !sameBacking(prev, got) {
							t.Fatalf("stream %d completion %d threshold %v: unchanged hitters %s came back as a new list", stream, c, f, FormatValue(got))
						}
						reused++
					}
					last[key] = got
					if rng.Intn(5) == 0 {
						keptLists = append(keptLists, kept{got, FormatValue(got)}) // reported = hitters
					}
					checks++
				}
			}
			// The held batch is scanned again, at this completion's
			// thresholds, after completions built since.
			for _, th := range pair {
				f, _ := asFloatR(th)
				fresh, _ := hhRecords{b: held}.hitters(f)
				if got := vmGetHH(t, held, th); !Equal(got, fresh) {
					t.Fatalf("stream %d completion %d: held batch getHH = %s, fresh scan %s", stream, c, FormatValue(got), FormatValue(fresh))
				}
			}
		}
	}
	for i, k := range keptLists {
		if got := FormatValue(k.l); got != k.text {
			t.Fatalf("kept list %d changed after hand-out: %s, was %s", i, got, k.text)
		}
	}
	if checks < 10_000 || reused < checks/4 || len(keptLists) < 1000 {
		t.Fatalf("weak storm: %d answers checked, %d reused, %d lists kept", checks, reused, len(keptLists))
	}
}

// hhMemoMachine reports its hitters on change, holds a poll result in a
// state variable for a few completions and scans it again, and takes a
// new threshold from its harvester.
const hhMemoMachine = `
machine HHMemo {
  place all;
  poll stats = Poll { .ival = 10, .what = port ANY };
  float th = 1000.0;
  list hitters; list reported; list oldHitters;
  long k;
  state watch {
    list held;
    util (res) { return 1; }
    when (stats as recs) do {
      hitters = getHH(recs, th);
      if (hitters <> reported) then {
        send hitters to harvester;
        reported = hitters;
      }
      if (k == 0) then { held = recs; }
      k = k + 1;
      if (k == 5) then { k = 0; }
      oldHitters = getHH(held, th + 1);
    }
  }
  when (recv float newTh from harvester) do { th = newTh; }
}
`

// TestGetHHMemoMatchesInterpreter runs the report-on-change seed on both
// executors over a completion stream with threshold changes (NaN among
// them) and requires identical state and sends after every step.
func TestGetHHMemoMatchesInterpreter(t *testing.T) {
	cm := parityCompile(t, hhMemoMachine, "HHMemo")
	rng := rand.New(rand.NewSource(11))
	set := newBackendSet(t, cm, nil)
	for _, r := range set.rs {
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
	}
	s := newHHStream(rng, 12)
	for c := 0; c < 300; c++ {
		b := s.next()
		for i, r := range set.rs {
			if err := r.HandleTrigger("stats", b); err != nil {
				t.Fatalf("%s: completion %d: %v", parityBackends[i], c, err)
			}
		}
		if c%37 == 36 {
			th := []float64{2000, math.NaN(), 500, 1000}[c/37%4]
			for i, r := range set.rs {
				if err := r.HandleRecv(MsgSource{Harvester: true}, th); err != nil {
					t.Fatalf("%s: threshold %v: %v", parityBackends[i], th, err)
				}
			}
		}
		want := fingerprint(set.rs[0]) + hostTrace(set.hs[0])
		if got := fingerprint(set.rs[1]) + hostTrace(set.hs[1]); got != want {
			t.Fatalf("completion %d: register VM diverged\n--- interpreter ---\n%s--- register ---\n%s", c, want, got)
		}
	}
	if sent := len(set.hs[0].sent); sent < 20 || sent > 250 {
		t.Fatalf("%d reports in 300 completions: the stream does not exercise report-on-change", sent)
	}
}

// TestGetHHAllocs: on an unchanged hitter set getHH allocates nothing,
// however many subscribers ask; on a changed one the first caller pays
// for the new list (its slice and the box) and the rest nothing. The
// count is process-wide, so the GC is off while a loop is measured: a
// cycle's mallocs, and its finalizers', would count against getHH.
func TestGetHHAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	const completions = 200
	for _, c := range []struct {
		name  string
		heavy func(c int) []int // completion c's hitters among ports 1..8
		max   float64
	}{
		{"unchanged", func(int) []int { return []int{2, 3, 7} }, 0},
		{"unchanged, none", func(int) []int { return nil }, 0},
		{"changed", func(c int) []int { return []int{1 + c%8, 8} }, 2},
	} {
		for _, subs := range []int{1, 8} {
			ports := make([]int, 48)
			cur := make([]dataplane.PortStats, len(ports))
			for i := range ports {
				ports[i] = i + 1
			}
			args := []rval{{k: rkBatch}, rint(4000)}
			var prev *Batch
			var total uint64
			func() {
				runtime.GC()
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				for n := 0; n < completions; n++ {
					for i := range cur {
						cur[i].TxBytes += 10
					}
					for _, p := range c.heavy(n) {
						cur[p-1].TxBytes += 5000
					}
					// The next completion is built once every subscriber
					// has had this one, as the soil does.
					prev = NewPortStatsBatch(ports, cur, prev)
					args[0].ref = prev
					before := mallocs()
					for s := 0; s < subs; s++ {
						if r, ok, _ := nvGetHH(nil, args, 0); !ok || r.k != rkRef {
							t.Fatalf("getHH refused completion %d", n)
						}
					}
					if n > 0 { // the first completion has nothing to carry
						total += mallocs() - before
					}
				}
			}()
			if per := float64(total) / (completions - 1); per > c.max {
				t.Fatalf("%s hitter set, %d subscribers: %.2f allocations per completion, want <= %.0f", c.name, subs, per, c.max)
			}
		}
	}
}
