package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/tasks"
)

// A core.Program is shared read-only by every seed deployed from it, on
// whatever goroutine its soil runs: the seeder compiles a machine once
// per source. The storm below is the gate on that sharing — under
// -race any write through the shared program or its machine's AST is a
// reported race, and without it the transcripts still have to agree.

// stormTranscript drives one runner through the deterministic catalogue
// storm, one step per call of the returned function, and renders what an
// observer can see of it: every step's error, and at the end the
// snapshot, the action count and the host-effect trace.
func stormTranscript(r core.Runner, h *parityTaskHost, cm *almanac.CompiledMachine) (step func(), done func() string) {
	var b strings.Builder
	fmt.Fprintf(&b, "start: %s\n", errStr(r.Start()))
	triggers := make([]string, 0, len(cm.Triggers)+1)
	for _, tr := range cm.Triggers {
		triggers = append(triggers, tr.Name)
	}
	triggers = append(triggers, "noSuchTrigger")
	rng := rand.New(rand.NewSource(911))
	n := 0
	step = func() {
		h.now = time.Duration(n) * 7 * time.Millisecond
		var err error
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			tr := triggers[rng.Intn(len(triggers))]
			err = r.HandleTrigger(tr, triggerArg(r, taskPayload(rng)))
		case 6, 7:
			from := core.MsgSource{Harvester: true}
			if rng.Intn(2) == 0 {
				from = core.MsgSource{Machine: cm.Name}
			}
			err = r.HandleRecv(from, core.CloneValue(taskPayload(rng)))
		case 8:
			err = r.HandleRealloc()
		default:
			err = r.Restore(r.Snapshot())
		}
		fmt.Fprintf(&b, "%d: %s\n", n, errStr(err))
		n++
	}
	done = func() string {
		fmt.Fprintf(&b, "%sactions=%d\n%s\n", snapFingerprint(r.Snapshot()), r.TakeActionCount(), strings.Join(h.trace, "\n"))
		return b.String()
	}
	return step, done
}

// TestCatalogueSharedProgramStorm runs, for every catalogued machine,
// four runners deployed from ONE program on four goroutines at once, all
// through the same storm. Each must end where the interpreter, run
// alone, ends; and the shared machine must encode and lower afterwards
// to exactly what it did before.
func TestCatalogueSharedProgramStorm(t *testing.T) {
	const (
		runners = 4
		steps   = 400
	)
	render := func(cm *almanac.CompiledMachine) string {
		xmlData, err := almanac.EncodeXML(cm)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := almanac.Lower(cm, core.BuiltinNames())
		if err != nil {
			t.Fatal(err)
		}
		return string(xmlData) + lp.Disassemble()
	}
	for _, d := range tasks.All() {
		parsed, err := almanac.Parse(d.Source)
		if err != nil {
			t.Fatal(err)
		}
		machines := d.Machines
		if machines == nil {
			for _, m := range parsed.Machines {
				machines = append(machines, m.Name)
			}
		}
		for _, mn := range machines {
			cm, err := almanac.CompileMachine(parsed, mn)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := core.Compile(cm)
			if err != nil {
				t.Fatal(err)
			}
			before := render(prog.Machine())
			ext := d.DefaultExternals[mn]

			// The reference: the interpreter over the same (shared)
			// machine, alone and serial.
			refHost := newParityTaskHost()
			ref, err := core.NewSeed(prog.Machine(), ext, refHost)
			if err != nil {
				t.Fatalf("%s/%s: %v", d.Name, mn, err)
			}
			refStep, refDone := stormTranscript(ref, refHost, cm)
			for i := 0; i < steps; i++ {
				refStep()
			}
			want := refDone()

			var wg sync.WaitGroup
			dones := make([]func() string, runners)
			for i := 0; i < runners; i++ {
				h := newParityTaskHost()
				r, err := prog.NewRunner(ext, h)
				if err != nil {
					t.Fatalf("%s/%s: %v", d.Name, mn, err)
				}
				var step func()
				step, dones[i] = stormTranscript(r, h, cm)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < steps; j++ {
						step()
					}
				}()
			}
			wg.Wait()
			for i, done := range dones {
				if got := done(); got != want {
					t.Fatalf("%s/%s: runner %d on the shared program diverged from the interpreter:\n--- interpreter\n%s\n--- runner\n%s",
						d.Name, mn, i, want, got)
				}
			}
			if after := render(prog.Machine()); after != before {
				t.Fatalf("%s/%s: the shared machine changed under its runners", d.Name, mn)
			}
		}
	}
}

// BenchmarkNewRunner deploys every catalogued machine once per op from
// its shared, already compiled Program: what a soil pays per seed it
// builds — binding the externals and evaluating the initialisers.
func BenchmarkNewRunner(b *testing.B) {
	type deployable struct {
		prog *core.Program
		ext  map[string]core.Value
	}
	var ds []deployable
	for _, d := range tasks.All() {
		parsed, err := almanac.Parse(d.Source)
		if err != nil {
			b.Fatal(err)
		}
		machines := d.Machines
		if machines == nil {
			for _, m := range parsed.Machines {
				machines = append(machines, m.Name)
			}
		}
		for _, mn := range machines {
			cm, err := almanac.CompileMachine(parsed, mn)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := core.Compile(cm)
			if err != nil {
				b.Fatal(err)
			}
			ds = append(ds, deployable{prog, d.DefaultExternals[mn]})
		}
	}
	h := newParityTaskHost()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range ds {
			if _, err := d.prog.NewRunner(d.ext, h); err != nil {
				b.Fatal(err)
			}
		}
	}
}
