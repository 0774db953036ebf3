package almanac

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// disasmGoldenSource exercises every register-form rendering the
// operators see under farmctl compile -dump: record layouts and struct
// literals, field loads with resolved sites, the list_len/list_get
// specializations, the mul+add fusion, fused compare-and-branch forms,
// and the per-statement step markers.
const disasmGoldenSource = `
struct Pt { float x; float y; }
machine Gold {
  place all;
  poll stats = Poll { .ival = 10, .what = port ANY };
  external float threshold;
  float acc;
  state observe {
    when (stats as recs) do {
      long n = list_len(recs);
      long i = 0;
      float sum = 0.0;
      while (i < n) {
        float d = list_get(recs, i).dTxBytes;
        sum = sum * 0.5 + d * 0.5;
        i = i + 1;
      }
      Pt p = Pt { .x = sum, .y = 0.0 };
      if (p.x > threshold) then { acc = acc * 0.9 + 1.0; }
    }
  }
}
`

// The register disassembly is operator surface (farmctl compile -dump),
// so its exact rendering is pinned against a golden file. Regenerate
// with: go test ./internal/almanac -run TestRegisterDisassemblyGolden -update
func TestRegisterDisassemblyGolden(t *testing.T) {
	prog, err := Parse(disasmGoldenSource)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := CompileMachine(prog, "Gold")
	if err != nil {
		t.Fatal(err)
	}
	lp, err := Lower(cm, []string{"list_len", "list_get"})
	if err != nil {
		t.Fatal(err)
	}
	got := lp.DisassembleRegisters()

	// Structural invariants first, so a stale golden still reports the
	// real regression rather than a wall of diff.
	for _, frag := range []string{
		"register form:",
		"layouts:",
		"Pt{x,y}",
		"+ ",         // step markers on statement-leading instructions
		"= muladd ",  // fused mul+add
		"= list_len", // specialized natives
		"= list_get",
		".false", // fused compare-and-branch
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("register disassembly missing %q:\n%s", frag, got)
		}
	}

	path := filepath.Join("testdata", "register_disasm.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("register disassembly drifted from golden (re-run with -update if intentional)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
