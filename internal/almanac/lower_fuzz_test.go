package almanac

import (
	"strings"
	"testing"
)

// FuzzLower drives arbitrary bytes through the whole front end: parse,
// compile, lower to register code, disassemble. Nothing on that path
// may panic — whatever sema accepts resolves every name, so it must
// lower (lowered code is the only thing a soil runs), whatever lowers
// must render, and lowering the same machine twice must give the same
// program. Seeds cover the paper's heavy-hitter task, the
// golden-disassembly machine, a few shapes that stress the emitter
// (fused branches, struct layouts, nested calls) — fuzzLowerSeeds,
// whose lowering the edge golden pins too — and every source sema
// refuses for a name out of scope (semaRejections), one mutation away
// from one it accepts.
func FuzzLower(f *testing.F) {
	for _, src := range fuzzLowerSeeds {
		f.Add(src)
	}
	for _, r := range semaRejections {
		f.Add(r.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil || prog == nil {
			return
		}
		cms, err := Compile(prog)
		if err != nil {
			return
		}
		for _, cm := range cms {
			lp, err := Lower(cm, fuzzBuiltins)
			if err != nil {
				t.Fatalf("sema-accepted input failed to lower: %v\n---\n%s", err, src)
			}
			if !strings.Contains(lp.Disassemble(), "register form:") {
				t.Fatalf("disassembly missing register section\n---\n%s", src)
			}
			again, err := Lower(cm, fuzzBuiltins)
			if err != nil || dumpLowered(again) != dumpLowered(lp) {
				t.Fatalf("lowering is not stable across two calls (err %v)\n---\n%s", err, src)
			}
		}
	})
}
