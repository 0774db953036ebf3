package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// oracleBudget bounds a program's work: past this many firings every
// ticker stops at its next firing and callbacks schedule nothing more,
// so a run terminates even when a bug re-arms an event in the past.
const oracleBudget = 2000

// runOracleProgram decodes prog into At/After/ScheduleOn/Every/Stop/
// SetInterval calls and runs (RunFor, RunUntil, Step, Drain) on s and
// returns what happened: every firing with its time, every Stop's
// result, and Now and Pending after every run. Every decision is read
// from prog, callbacks' included, so any two schedulers that agree on
// the engine's contract return the same log.
func runOracleProgram(s Scheduler, prog []byte) []string {
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	// dur spans the whole int64 range, negative included, with extra
	// weight on the values that reach each wheel range, on ties, and on
	// the top of the range, where now+d wraps.
	dur := func() time.Duration {
		switch c := next(); c % 4 {
		case 0:
			var b [8]byte
			for i := range b {
				b[i] = next()
			}
			return time.Duration(binary.LittleEndian.Uint64(b[:]))
		case 1:
			return math.MaxInt64 - time.Duration(next())*time.Millisecond
		case 2:
			return time.Duration(next()) << (c >> 2 % 48)
		default:
			return time.Duration(next()) * 100 * time.Microsecond
		}
	}
	interval := func() time.Duration {
		if d := dur() & math.MaxInt64; d > 0 {
			return d
		}
		return 1
	}
	var (
		log     []string
		timers  []Timer
		tickers []Ticker
		fired   int
	)
	// action decodes what a callback does when it fires: nothing, arm a
	// child, stop a timer, or retune a ticker.
	action := func() func() {
		switch a := next(); a % 4 {
		case 1:
			d, id := dur(), a
			return func() {
				timers = append(timers, s.After(d, func() { log = append(log, fmt.Sprintf("child%d@%d", id, s.Now())) }))
			}
		case 2:
			i := int(next())
			return func() {
				if len(timers) > 0 {
					log = append(log, fmt.Sprint("stop ", timers[i%len(timers)].Stop()))
				}
			}
		case 3:
			i, iv := int(next()), interval()
			return func() {
				if len(tickers) > 0 {
					tickers[i%len(tickers)].SetInterval(iv)
				}
			}
		}
		return nil
	}
	oneShot := func(id int) func() {
		act := action()
		return func() {
			fired++
			log = append(log, fmt.Sprintf("%d@%d", id, s.Now()))
			if act != nil && fired < oracleBudget {
				act()
			}
		}
	}
	for op := 0; len(prog) > 0; op++ {
		switch next() % 8 {
		case 0:
			timers = append(timers, s.At(dur(), oneShot(op)))
		case 1:
			timers = append(timers, s.After(dur(), oneShot(op)))
		case 2:
			ScheduleOn(s, dur(), oneShot(op))
		case 3:
			id, iv, act := op, interval(), action()
			var tk Ticker
			tk = s.Every(iv, func() {
				fired++
				log = append(log, fmt.Sprintf("t%d@%d", id, s.Now()))
				if fired >= oracleBudget {
					tk.Stop()
				} else if act != nil {
					act()
				}
			})
			tickers = append(tickers, tk)
		case 4:
			if i := int(next()); len(timers) > 0 {
				log = append(log, fmt.Sprint("stop ", timers[i%len(timers)].Stop()))
			}
		case 5:
			if i := int(next()); len(tickers) > 0 {
				tickers[i%len(tickers)].Stop()
			}
		case 6:
			if i, iv := int(next()), interval(); len(tickers) > 0 {
				tickers[i%len(tickers)].SetInterval(iv)
			}
		default:
			switch next() % 4 {
			case 0:
				s.RunFor(dur())
			case 1:
				s.RunUntil(dur())
			case 2:
				s.Step()
			default:
				s.Drain(int(next()))
			}
			log = append(log, fmt.Sprintf("now %d pending %d", s.Now(), s.Pending()))
		}
	}
	// Once the budget is spent every ticker stops at its next firing, so
	// this bound is never the reason the queue is left non-empty.
	n := s.Drain(2*oracleBudget + 4*len(tickers) + 4096)
	log = append(log, fmt.Sprintf("drained %d, now %d pending %d", n, s.Now(), s.Pending()))
	return log
}

// FuzzSchedulerOracle runs arbitrary scheduling programs, durations from
// the whole int64 range included, on the serial engine and on the heap
// reference: the firing logs must be identical, and the bounded drain
// that ends each program must leave nothing pending.
func FuzzSchedulerOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 5, 1, 2, 11, 50, 0, 3, 2, 7, 0, 7, 0, 3, 200})
	f.Add([]byte{3, 3, 9, 0, 3, 2, 30, 1, 6, 3, 0, 7, 1, 2, 40, 2, 0, 7, 2, 7, 3, 50, 4, 0})
	f.Add([]byte{7, 0, 122, 1, 3, 1, 11, 0, 7, 0, 122, 1}) // Every(MaxInt64-11ms) at 1s
	f.Add([]byte{7, 0, 3, 10, 1, 1, 0, 0, 2, 1, 0, 6, 0, 1, 0, 7, 0, 1, 0})
	f.Add([]byte{3, 1, 0, 0, 7, 0, 1, 0, 6, 0, 3, 5, 7, 3, 10}) // a live ticker at the end of time, then retuned
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			return
		}
		got := runOracleProgram(NewSerial(), prog)
		want := runOracleProgram(newHeapSched(), prog)
		for i := 0; i < len(got) || i < len(want); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("entry %d of %d/%d: serial %q, heap %q", i, len(got), len(want), g, w)
			}
		}
		if last := got[len(got)-1]; !strings.HasSuffix(last, " pending 0") {
			t.Fatalf("bounded drain left events queued: %s", last)
		}
	})
}
