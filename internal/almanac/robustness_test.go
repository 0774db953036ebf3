package almanac

import (
	"math/rand"
	"strings"
	"testing"
)

// The parser must never panic, whatever bytes arrive: fuzz-style random
// mutations of a valid program must produce either a Program or an
// error, nothing else.
func TestParserRobustToMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := hhSource
	tokens := []string{"{", "}", "(", ")", ";", "state", "when", "place",
		"\"", "0", "machine", ".", "=", "<>", "util", "recv"}
	for i := 0; i < 500; i++ {
		src := []byte(base)
		// Apply 1-4 random mutations: delete a span, insert a token, or
		// flip a byte.
		for m := 0; m < 1+rng.Intn(4); m++ {
			switch rng.Intn(3) {
			case 0: // delete
				if len(src) > 10 {
					at := rng.Intn(len(src) - 5)
					n := rng.Intn(5) + 1
					src = append(src[:at], src[at+n:]...)
				}
			case 1: // insert
				tok := tokens[rng.Intn(len(tokens))]
				at := rng.Intn(len(src))
				src = append(src[:at], append([]byte(tok), src[at:]...)...)
			case 2: // flip
				at := rng.Intn(len(src))
				src[at] = byte(rng.Intn(94) + 32)
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on mutated input: %v\n---\n%s", r, src)
				}
			}()
			prog, err := Parse(string(src))
			if err == nil && prog != nil {
				// If it still parses, compilation must also not panic —
				// and whatever passes sema must lower to bytecode, since
				// the compiled back end is the soil default.
				cms, cerr := Compile(prog)
				if cerr == nil {
					for _, cm := range cms {
						if _, lerr := Lower(cm, nil); lerr != nil {
							t.Fatalf("sema-accepted mutant failed to lower: %v\n---\n%s", lerr, src)
						}
					}
				}
			}
		}()
	}
}

// Compiled machines survive an XML round trip even after mutation-driven
// compilation (whatever compiles, encodes).
func TestWhateverCompilesEncodes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		src := hhSource
		// Random but syntactically safe tweaks: rename identifiers.
		src = strings.ReplaceAll(src, "hitters", "h"+string(rune('a'+rng.Intn(26))))
		prog, err := Parse(src)
		if err != nil {
			continue
		}
		cms, err := Compile(prog)
		if err != nil {
			continue
		}
		for _, cm := range cms {
			data, err := EncodeXML(cm)
			if err != nil {
				t.Fatalf("encode failed for compiling machine: %v", err)
			}
			if _, err := DecodeXML(data); err != nil {
				t.Fatalf("decode failed: %v", err)
			}
		}
	}
}

// Whatever compiles also lowers, disassembles, and reports sane
// compiled-size metrics (the farmctl compile/analyze surface).
func TestWhateverCompilesLowers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		src := hhSource
		src = strings.ReplaceAll(src, "hitters", "h"+string(rune('a'+rng.Intn(26))))
		src = strings.ReplaceAll(src, "thresh", "t"+string(rune('a'+rng.Intn(26))))
		prog, err := Parse(src)
		if err != nil {
			continue
		}
		cms, err := Compile(prog)
		if err != nil {
			continue
		}
		for _, cm := range cms {
			lp, err := Lower(cm, []string{"list_len", "list_get", "addTCAMRule"})
			if err != nil {
				t.Fatalf("lower failed for compiling machine: %v", err)
			}
			if lp.NumRegInstrs() <= 0 {
				t.Fatalf("lowered %s has no instructions", cm.Name)
			}
			dump := lp.Disassemble()
			if !strings.Contains(dump, "machine "+cm.Name) || !strings.Contains(dump, "chunk 0") {
				t.Fatalf("disassembly incomplete:\n%s", dump)
			}
		}
	}
}

// The lexer reports positions, never panics, on arbitrary strings.
func TestLexerRobust(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 500; i++ {
		n := rng.Intn(200)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("lexer panicked: %v", r)
				}
			}()
			_, _ = Lex(string(b))
		}()
	}
}

// A machine built by hand can hold a filter atom with no argument (so
// can seed XML: DecodeXML resolves names but checks no more of sema);
// lowering reports the missing operand as an error like any other
// shape it does not know.
func TestLowerRejectsMissingOperand(t *testing.T) {
	cm := &CompiledMachine{
		Name:         "M",
		InitialState: "s",
		States: []CompiledState{{Name: "s", Events: []EventDecl{{
			Trigger: EventTrigger{Kind: TrigOnEnter},
			Body:    []Stmt{&ExprStmt{X: &FilterAtom{Field: "srcIP"}}},
		}}}},
	}
	if _, err := Lower(cm, nil); err == nil || !strings.Contains(err.Error(), "unknown expression") {
		t.Fatalf("Lower = %v, want an unknown-expression error", err)
	}
}

// A machine built by hand skips name resolution. Lower refuses what
// resolution would have refused with an error, never a fault opcode
// that fails when it runs.
func TestLowerRejectsUnresolvedNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		trg  EventTrigger
		body []Stmt
		want string
	}{
		{"read", EventTrigger{Kind: TrigOnEnter}, []Stmt{&ExprStmt{X: &Ident{Name: "ghost"}}}, "unresolved name ghost"},
		{"write", EventTrigger{Kind: TrigOnEnter}, []Stmt{&AssignStmt{Target: "ghost", Val: &IntLit{Val: 1}}}, "assignment to unresolved name ghost"},
		{"field write", EventTrigger{Kind: TrigOnEnter}, []Stmt{&AssignStmt{Target: "ghost", Field: "x", Val: &IntLit{Val: 1}}}, "assignment to unresolved name ghost"},
		{"transit", EventTrigger{Kind: TrigOnEnter}, []Stmt{&TransitStmt{State: "nowhere"}}, "transit to undeclared state nowhere"},
		{"trigger", EventTrigger{Kind: TrigOnVar, VarName: "nosuch"}, nil, "event on undeclared trigger nosuch"},
	} {
		cm := &CompiledMachine{
			Name:         "M",
			InitialState: "s",
			States:       []CompiledState{{Name: "s", Events: []EventDecl{{Trigger: tc.trg, Body: tc.body}}}},
		}
		if _, err := Lower(cm, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Lower = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
