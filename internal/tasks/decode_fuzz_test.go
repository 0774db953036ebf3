package tasks

import (
	"math/rand"
	"slices"
	"testing"

	"farm/internal/almanac"
	"farm/internal/core"
)

// recurses reports whether an auxiliary function of lp can call itself,
// directly or through others. Neither executor bounds call depth, so a
// function that never bottoms out overflows the Go stack instead of
// failing the handler; the fuzz target below stays clear of that.
func recurses(lp *almanac.Lowered) bool {
	for fi := range lp.Funcs {
		seen := make([]bool, len(lp.Funcs))
		work := []int32{int32(fi)}
		for len(work) > 0 {
			f := lp.Funcs[work[len(work)-1]]
			work = work[:len(work)-1]
			for _, in := range lp.RegChunks[f.Chunk].Code {
				if in.Op != almanac.RCallFn {
					continue
				}
				if in.A == int32(fi) {
					return true
				}
				if !seen[in.A] {
					seen[in.A] = true
					work = append(work, in.A)
				}
			}
		}
	}
	return false
}

// FuzzDecodeCompile drives arbitrary bytes through the path seed XML
// takes into a soil: decode (no sema pass), compile, render, deploy on
// the register VM, and one round of events. Any step may refuse its
// input; none may panic. The corpus is the XML of every catalogue
// machine.
func FuzzDecodeCompile(f *testing.F) {
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
		if recurses(lp) {
			return
		}
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
