package tasks

import (
	"math/rand"
	"slices"
	"testing"

	"farm/internal/almanac"
	"farm/internal/core"
)

// FuzzDecodeCompile drives arbitrary bytes through the path seed XML
// takes into a soil: decode (no sema pass), compile, render, deploy on
// the register VM, and one round of events. Any step may refuse its
// input; none may panic — a machine whose functions recurse without end
// fails its handlers at the call-depth bound. The corpus is the XML of
// every catalogue machine and of one such runaway.
func FuzzDecodeCompile(f *testing.F) {
	runaway, err := almanac.Parse(`
function ping(long n) { return pong(n + 1); }
function pong(long n) { return ping(n + 1); }
machine Runaway {
  place all;
  time tick = 10;
  long depth;
  state s {
    when (enter) do { depth = pong(0); }
    when (tick as now) do { depth = ping(now); }
  }
}`)
	if err != nil {
		f.Fatal(err)
	}
	cm, err := almanac.CompileMachine(runaway, "Runaway")
	if err != nil {
		f.Fatal(err)
	}
	xmlData, err := almanac.EncodeXML(cm)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(xmlData)
	defaults := map[string]core.Value{}
	for _, d := range All() {
		prog, err := almanac.Parse(d.Source)
		if err != nil {
			f.Fatal(err)
		}
		for _, m := range prog.Machines {
			if d.Machines != nil && !slices.Contains(d.Machines, m.Name) {
				continue // an inheritance base the task never deploys
			}
			cm, err := almanac.CompileMachine(prog, m.Name)
			if err != nil {
				f.Fatal(err)
			}
			xmlData, err := almanac.EncodeXML(cm)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(xmlData)
			for name, v := range d.DefaultExternals[m.Name] {
				defaults[name] = v
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cm, err := almanac.DecodeXML(data)
		if err != nil {
			return
		}
		prog, err := core.Compile(cm)
		if err != nil {
			return
		}
		lp, err := almanac.Lower(cm, core.BuiltinNames())
		if err != nil {
			t.Fatalf("Compile accepted a machine Lower rejects: %v", err)
		}
		_ = lp.Disassemble()
		externals := map[string]core.Value{}
		for _, name := range cm.ExternalVars() {
			v, ok := defaults[name]
			if !ok {
				v = int64(1)
			}
			externals[name] = core.CloneValue(v)
		}
		r, err := prog.NewRunner(externals, newParityTaskHost())
		if err != nil {
			return
		}
		r.Snapshot()
		_ = r.Start()
		_ = r.HandleRealloc()
		rng := rand.New(rand.NewSource(int64(len(data))))
		for _, tr := range cm.Triggers {
			_ = r.HandleTrigger(tr.Name, triggerArg(r, taskPayload(rng)))
		}
		r.Snapshot()
	})
}
