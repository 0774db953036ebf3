package almanac

import (
	"math"
	"strings"
	"testing"

	"farm/internal/dataplane"
	"farm/internal/netmodel"
	"farm/internal/poly"
)

func TestEvalConstArithmetic(t *testing.T) {
	prog := mustParse(t, `machine M { place all; long x = 2 * 3 + 10 / 2 - 1; state s { when (enter) do {} } }`)
	v, err := EvalConst(prog.Machines[0].Vars[0].Init, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != ConstNum || v.Num != 10 {
		t.Fatalf("v = %+v, want 10", v)
	}
}

func TestEvalConstEnv(t *testing.T) {
	prog := mustParse(t, `machine M { place all; long x = base + 1; state s { when (enter) do {} } }`)
	env := map[string]Const{"base": NumConst(41)}
	v, err := EvalConst(prog.Machines[0].Vars[0].Init, env)
	if err != nil {
		t.Fatal(err)
	}
	if v.Num != 42 {
		t.Fatalf("v = %g", v.Num)
	}
	if _, err := EvalConst(prog.Machines[0].Vars[0].Init, nil); err == nil {
		t.Fatal("unbound identifier should error")
	}
}

func TestEvalConstComparisonsAndBools(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"1 <= 2", true}, {"2 <= 1", false},
		{"1 == 1", true}, {"1 <> 1", false},
		{"true and false", false}, {"true or false", true},
		{"not false", true},
		{`"a" == "a"`, true}, {`"a" <> "b"`, true},
	}
	for _, c := range cases {
		prog := mustParse(t, `machine M { place all; bool x = `+c.src+`; state s { when (enter) do {} } }`)
		v, err := EvalConst(prog.Machines[0].Vars[0].Init, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if v.Kind != ConstBool || v.Bool != c.want {
			t.Fatalf("%s = %+v, want %v", c.src, v, c.want)
		}
	}
}

func TestEvalConstDivByZero(t *testing.T) {
	prog := mustParse(t, `machine M { place all; long x = 1 / 0; state s { when (enter) do {} } }`)
	if _, err := EvalConst(prog.Machines[0].Vars[0].Init, nil); err == nil {
		t.Fatal("expected division-by-zero error")
	}
}

func parseFilterExpr(t *testing.T, src string) Expr {
	t.Helper()
	prog := mustParse(t, `machine M { place all; poll p = Poll { .ival = 1, .what = `+src+` }; state s { when (p as x) do {} } }`)
	return prog.Machines[0].Triggers[0].Init.(*StructLit).Fields[1].Val
}

func TestEvalFilterAtoms(t *testing.T) {
	f, err := EvalConst(parseFilterExpr(t, `srcIP "10.1.1.4" and dstIP "10.0.1.0/24" and dstPort 80 and proto "tcp"`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != ConstFilter {
		t.Fatalf("kind = %v", f.Kind)
	}
	if f.Filter.SrcPrefix.String() != "10.1.1.4/32" {
		t.Fatalf("src = %v", f.Filter.SrcPrefix)
	}
	if f.Filter.DstPrefix.String() != "10.0.1.0/24" {
		t.Fatalf("dst = %v", f.Filter.DstPrefix)
	}
	if f.Filter.DstPort != 80 || f.Filter.Proto != dataplane.ProtoTCP {
		t.Fatalf("filter = %+v", f.Filter)
	}
}

func TestEvalFilterPortAny(t *testing.T) {
	f, err := EvalConst(parseFilterExpr(t, `port ANY`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !f.PortAny || !f.Filter.IsZero() {
		t.Fatalf("f = %+v", f)
	}
}

func TestEvalFilterSpecificPort(t *testing.T) {
	f, err := EvalConst(parseFilterExpr(t, `port 3`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.PortAny || f.Filter.InPort != 3 {
		t.Fatalf("f = %+v", f)
	}
}

func TestEvalFilterConflict(t *testing.T) {
	_, err := EvalConst(parseFilterExpr(t, `dstPort 80 and dstPort 443`), nil)
	if err == nil || !strings.Contains(err.Error(), "conflicting") {
		t.Fatalf("err = %v", err)
	}
}

func TestEvalFilterBadAddress(t *testing.T) {
	if _, err := EvalConst(parseFilterExpr(t, `srcIP "not-an-ip"`), nil); err == nil {
		t.Fatal("expected address error")
	}
}

// --- Utility analysis ---

func utilOf(t *testing.T, src string) *UtilDecl {
	t.Helper()
	full := `machine M { place all; state s { util (res) ` + src + ` when (enter) do {} } }`
	cm := mustCompile(t, full, "M")
	return cm.States[0].Util
}

func TestAnalyzeUtilityPaperHH(t *testing.T) {
	ut := utilOf(t, `{
      if (res.vCPU >= 1 and res.RAM >= 100) then {
        return min(res.vCPU, res.PCIe);
      }
    }`)
	u, err := AnalyzeUtility(ut, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(u) != 1 {
		t.Fatalf("cases = %d, want 1", len(u))
	}
	c := u[0]
	if len(c.Constraints) != 2 {
		t.Fatalf("constraints = %d, want 2", len(c.Constraints))
	}
	// C^s = {vCPU - 1, RAM - 100}
	assign := netmodel.Vector{netmodel.ResVCPU: 2, netmodel.ResRAM: 150, netmodel.ResPCIe: 1.5}
	if !c.Feasible(assign, 0) {
		t.Fatal("should be feasible")
	}
	if c.Feasible(netmodel.Vector{netmodel.ResVCPU: 0.5, netmodel.ResRAM: 150}, 0) {
		t.Fatal("vCPU constraint not extracted")
	}
	// u^s = min(vCPU, PCIe) = 1.5 here.
	if got := c.Util.Eval(assign); got != 1.5 {
		t.Fatalf("util = %g, want 1.5", got)
	}
	v, ok := u.Eval(assign)
	if !ok || v != 1.5 {
		t.Fatalf("utility eval = %g,%v", v, ok)
	}
}

func TestAnalyzeUtilityConstant(t *testing.T) {
	u, err := AnalyzeUtility(utilOf(t, `{ return 100; }`), nil)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := u.Eval(netmodel.Vector{})
	if !ok || v != 100 {
		t.Fatalf("eval = %g,%v", v, ok)
	}
	if len(u[0].Constraints) != 0 {
		t.Fatalf("constraints = %v, want none", u[0].Constraints)
	}
}

func TestAnalyzeUtilityOrSplitsCases(t *testing.T) {
	u, err := AnalyzeUtility(utilOf(t, `{
      if (res.vCPU >= 2 or res.RAM >= 1000) then { return res.vCPU; }
    }`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(u) != 2 {
		t.Fatalf("cases = %d, want 2 (or-split)", len(u))
	}
	// Feasible through the RAM side even with low vCPU.
	if v, ok := u.Eval(netmodel.Vector{netmodel.ResVCPU: 1, netmodel.ResRAM: 2000}); !ok || v != 1 {
		t.Fatalf("eval = %g,%v", v, ok)
	}
	if _, ok := u.Eval(netmodel.Vector{netmodel.ResVCPU: 1, netmodel.ResRAM: 10}); ok {
		t.Fatal("neither side should be feasible")
	}
}

func TestAnalyzeUtilityElse(t *testing.T) {
	u, err := AnalyzeUtility(utilOf(t, `{
      if (res.vCPU >= 2) then { return 10; } else { return 1; }
    }`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(u) != 2 {
		t.Fatalf("cases = %d, want 2", len(u))
	}
	if v, _ := u.Eval(netmodel.Vector{netmodel.ResVCPU: 3}); v != 10 {
		t.Fatalf("rich eval = %g", v)
	}
	if v, _ := u.Eval(netmodel.Vector{netmodel.ResVCPU: 1}); v != 1 {
		t.Fatalf("poor eval = %g", v)
	}
}

func TestAnalyzeUtilitySequentialIfs(t *testing.T) {
	u, err := AnalyzeUtility(utilOf(t, `{
      if (res.vCPU >= 4) then { return 100; }
      if (res.vCPU >= 1) then { return 10; }
      return 0;
    }`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := u.Eval(netmodel.Vector{netmodel.ResVCPU: 5}); v != 100 {
		t.Fatalf("eval(5) = %g", v)
	}
	if v, _ := u.Eval(netmodel.Vector{netmodel.ResVCPU: 2}); v != 10 {
		t.Fatalf("eval(2) = %g", v)
	}
	if v, _ := u.Eval(netmodel.Vector{netmodel.ResVCPU: 0}); v != 0 {
		t.Fatalf("eval(0) = %g", v)
	}
}

func TestAnalyzeUtilityMaxSplits(t *testing.T) {
	u, err := AnalyzeUtility(utilOf(t, `{ return max(res.vCPU, 2 * res.RAM); }`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := u.Eval(netmodel.Vector{netmodel.ResVCPU: 10, netmodel.ResRAM: 1}); v != 10 {
		t.Fatalf("eval = %g", v)
	}
	if v, _ := u.Eval(netmodel.Vector{netmodel.ResVCPU: 1, netmodel.ResRAM: 10}); v != 20 {
		t.Fatalf("eval = %g", v)
	}
}

func TestAnalyzeUtilityArithmetic(t *testing.T) {
	u, err := AnalyzeUtility(utilOf(t, `{ return min(res.vCPU, res.PCIe) * 2 + 5; }`), nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := u.Eval(netmodel.Vector{netmodel.ResVCPU: 3, netmodel.ResPCIe: 1})
	if v != 7 {
		t.Fatalf("eval = %g, want 2*1+5", v)
	}
}

func TestAnalyzeUtilityNilMeansZero(t *testing.T) {
	u, err := AnalyzeUtility(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := u.Eval(netmodel.Vector{}); !ok || v != 0 {
		t.Fatalf("eval = %g,%v", v, ok)
	}
}

func TestAnalyzeUtilityExternalsAsConstants(t *testing.T) {
	full := `machine M { place all; external long weight; state s { util (res) { return res.vCPU * weight; } when (enter) do {} } }`
	cm := mustCompile(t, full, "M")
	u, err := AnalyzeUtility(cm.States[0].Util, map[string]Const{"weight": NumConst(3)})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := u.Eval(netmodel.Vector{netmodel.ResVCPU: 2}); v != 6 {
		t.Fatalf("eval = %g", v)
	}
}

func TestAnalyzeUtilityNonlinearRejected(t *testing.T) {
	_, err := AnalyzeUtility(utilOf(t, `{ return res.vCPU * res.RAM; }`), nil)
	if err == nil {
		t.Fatal("expected non-linearity error")
	}
}

// --- Poll analysis ---

func TestAnalyzePollsPaperHH(t *testing.T) {
	cm := mustCompile(t, hhSource, "HH")
	polls, err := AnalyzePolls(cm, map[string]Const{"threshold": NumConst(1000)})
	if err != nil {
		t.Fatal(err)
	}
	if len(polls) != 1 {
		t.Fatalf("polls = %d", len(polls))
	}
	pi := polls[0]
	if pi.Name != "pollStats" || pi.TType != TrigPoll {
		t.Fatalf("pi = %+v", pi)
	}
	// ival = 10/res().PCIe ms -> rate = 100 * PCIe polls/s.
	rate := pi.RatePerSec.Eval(netmodel.Vector{netmodel.ResPCIe: 1})
	if math.Abs(rate-100) > 1e-9 {
		t.Fatalf("rate = %g, want 100", rate)
	}
	rate2 := pi.RatePerSec.Eval(netmodel.Vector{netmodel.ResPCIe: 2})
	if math.Abs(rate2-200) > 1e-9 {
		t.Fatalf("rate = %g, want 200", rate2)
	}
	ival, err := pi.IvalMillisAt(netmodel.Vector{netmodel.ResPCIe: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ival-10) > 1e-9 {
		t.Fatalf("ival = %g ms, want 10", ival)
	}
	if !pi.What.PortAny {
		t.Fatalf("what = %+v, want port ANY", pi.What)
	}
}

func TestAnalyzePollsConstantIval(t *testing.T) {
	src := `machine M { place all; poll p = Poll { .ival = 10, .what = port ANY }; state s { when (p as x) do {} } }`
	cm := mustCompile(t, src, "M")
	polls, err := AnalyzePolls(cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := polls[0].RatePerSec.Eval(netmodel.Vector{}); got != 100 {
		t.Fatalf("rate = %g, want 100/s for 10ms", got)
	}
}

func TestAnalyzePollsTimeTrigger(t *testing.T) {
	src := `machine M { place all; time t = 500; state s { when (t as x) do {} } }`
	cm := mustCompile(t, src, "M")
	polls, err := AnalyzePolls(cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if polls[0].TType != TrigTime || polls[0].RatePerSec.Eval(netmodel.Vector{}) != 2 {
		t.Fatalf("pi = %+v", polls[0])
	}
}

func TestAnalyzePollsRejectsBadIval(t *testing.T) {
	cases := []string{
		`poll p = Poll { .ival = res().PCIe, .what = port ANY };`, // linear ival -> nonlinear rate
		`poll p = Poll { .ival = 0, .what = port ANY };`,
		`poll p = Poll { .what = port ANY };`,
	}
	for _, decl := range cases {
		src := `machine M { place all; ` + decl + ` state s { when (p as x) do {} } }`
		cm := mustCompile(t, src, "M")
		if _, err := AnalyzePolls(cm, nil); err == nil {
			t.Errorf("%s: expected analysis error", decl)
		}
	}
}

func TestIvalMillisAtNonPositiveRate(t *testing.T) {
	pi := PollInfo{Name: "p", RatePerSec: poly.Constant(0)}
	if _, err := pi.IvalMillisAt(netmodel.Vector{}); err == nil {
		t.Fatal("expected error for zero rate")
	}
}
