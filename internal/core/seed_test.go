package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"farm/internal/almanac"
	"farm/internal/dataplane"
	"farm/internal/netmodel"
)

// mockHost records every interaction a seed makes with its environment.
type mockHost struct {
	now       time.Duration
	resources netmodel.Vector
	tcam      *dataplane.TCAM
	rules     []string // every AddTCAMRule call, rendered
	sent      []sentMsg
	intervals map[string]float64
	execCalls []string
	execFn    func(cmd string, arg Value) (Value, error)
	logs      []string
}

type sentMsg struct {
	to SendDest
	v  Value
}

func newMockHost() *mockHost {
	return &mockHost{
		resources: netmodel.Vector{netmodel.ResVCPU: 2, netmodel.ResRAM: 1024, netmodel.ResPCIe: 1},
		tcam:      dataplane.NewTCAM(64),
		intervals: map[string]float64{},
	}
}

func (h *mockHost) Now() time.Duration          { return h.now }
func (h *mockHost) Resources() *netmodel.Vector { return &h.resources }
func (h *mockHost) AddTCAMRule(r dataplane.Rule) error {
	h.rules = append(h.rules, fmt.Sprintf("%+v", r))
	return h.tcam.AddRule(r)
}
func (h *mockHost) RemoveTCAMRule(f dataplane.Filter) bool { return h.tcam.RemoveRule(f) }
func (h *mockHost) GetTCAMRule(f dataplane.Filter) (dataplane.Rule, bool) {
	return h.tcam.GetRule(f)
}
func (h *mockHost) Send(to SendDest, v Value) { h.sent = append(h.sent, sentMsg{to, v}) }
func (h *mockHost) SetTriggerInterval(trigger string, ms float64) {
	h.intervals[trigger] = ms
}
func (h *mockHost) Exec(cmd string, arg Value) (Value, error) {
	h.execCalls = append(h.execCalls, cmd)
	if h.execFn != nil {
		return h.execFn(cmd, arg)
	}
	return nil, nil
}
func (h *mockHost) Log(format string, args ...any) {
	h.logs = append(h.logs, fmt.Sprintf(format, args...))
}

// hhRunnableSource is List. 2 with setHitterRules spelled out using the
// runtime library, so it is fully executable.
const hhRunnableSource = `
function setHitterRules(list hs, action act) {
  long i = 0;
  while (i < list_len(hs)) {
    addTCAMRule(port list_get(hs, i), act, 10);
    i = i + 1;
  }
}
machine HH {
  place all;
  poll pollStats = Poll {
    .ival = 10 / res().PCIe, .what = port ANY
  };
  external long threshold;
  action hitterAction = setQoS();
  list hitters;

  state observe {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 100) then {
        return min(res.vCPU, res.PCIe);
      }
    }
    when (pollStats as stats) do {
      hitters = getHH(stats, threshold);
      if (not is_list_empty(hitters)) then {
        transit HHdetected;
      }
    }
  }
  state HHdetected {
    util (res) { return 100; }
    when (enter) do {
      send hitters to harvester;
      setHitterRules(hitters, hitterAction);
      transit observe;
    }
  }
  when (recv long newTh from harvester)
  do { threshold = newTh; }
  when (recv action hitAct from harvester)
  do { hitterAction = hitAct; }
}
`

func compileSrc(t *testing.T, src, name string) *almanac.CompiledMachine {
	t.Helper()
	prog, err := almanac.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := almanac.CompileMachine(prog, name)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

func newHHSeed(t *testing.T, h Host) *Seed {
	t.Helper()
	cm := compileSrc(t, hhRunnableSource, "HH")
	s, err := NewSeed(cm, map[string]Value{"threshold": int64(1000)}, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

func statsList(portBytes map[int]int64) List {
	var out List
	for port, d := range portBytes {
		out = append(out, StructOf("PortStats", map[string]Value{
			"port": int64(port), "dTxBytes": d, "txBytes": d,
			"dRxBytes": int64(0), "rxBytes": int64(0),
			"dTxPkts": int64(1), "txPkts": int64(1),
			"dRxPkts": int64(0), "rxPkts": int64(0),
		}))
	}
	return out
}

func TestHHSeedLifecycle(t *testing.T) {
	h := newMockHost()
	s := newHHSeed(t, h)
	if s.State() != "observe" {
		t.Fatalf("state = %s", s.State())
	}

	// Below threshold: stays observing.
	if err := s.HandleTrigger("pollStats", statsList(map[int]int64{1: 500, 2: 10})); err != nil {
		t.Fatal(err)
	}
	if s.State() != "observe" || len(h.sent) != 0 {
		t.Fatalf("state=%s sent=%d", s.State(), len(h.sent))
	}

	// Above threshold on port 2: transit to HHdetected, whose enter
	// handler reports to the harvester, installs rules, and returns.
	if err := s.HandleTrigger("pollStats", statsList(map[int]int64{2: 5000})); err != nil {
		t.Fatal(err)
	}
	if s.State() != "observe" {
		t.Fatalf("state = %s, want observe (round trip through HHdetected)", s.State())
	}
	if len(h.sent) != 1 || !h.sent[0].to.Harvester {
		t.Fatalf("sent = %+v", h.sent)
	}
	hit, ok := h.sent[0].v.(List)
	if !ok || len(hit) != 1 || hit[0] != int64(2) {
		t.Fatalf("hitters = %s", FormatValue(h.sent[0].v))
	}
	// Local reaction: a TCAM rule for port 2 with QoS action.
	r, ok := h.tcam.GetRule(dataplane.Filter{InPort: 2})
	if !ok || r.Action != dataplane.ActSetQoS || r.Priority != 10 {
		t.Fatalf("rule = %+v, %v", r, ok)
	}
	if r.Note != "HH" {
		t.Fatalf("rule note = %q", r.Note)
	}
}

func TestHHSeedHarvesterReconfigures(t *testing.T) {
	h := newMockHost()
	s := newHHSeed(t, h)
	// Harvester lowers the threshold.
	if err := s.HandleRecv(MsgSource{Harvester: true}, int64(100)); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Var("threshold"); v != int64(100) {
		t.Fatalf("threshold = %v", v)
	}
	// Harvester changes the action to drop.
	if err := s.HandleRecv(MsgSource{Harvester: true}, ActionVal(dataplane.ActDrop)); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleTrigger("pollStats", statsList(map[int]int64{3: 200})); err != nil {
		t.Fatal(err)
	}
	r, ok := h.tcam.GetRule(dataplane.Filter{InPort: 3})
	if !ok || r.Action != dataplane.ActDrop {
		t.Fatalf("rule = %+v, %v (threshold/action update not applied)", r, ok)
	}
}

func TestRecvPatternMatching(t *testing.T) {
	h := newMockHost()
	s := newHHSeed(t, h)
	// A string message matches neither recv pattern: dropped silently.
	if err := s.HandleRecv(MsgSource{Harvester: true}, "hello"); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Var("threshold"); v != int64(1000) {
		t.Fatalf("threshold changed to %v by unmatched message", v)
	}
}

// Bindings that do not match the machine's externals fail the deployment
// on both executors, the smallest unknown name reported whatever the
// map's order.
func TestExternalValidation(t *testing.T) {
	cm := compileSrc(t, hhRunnableSource, "HH")
	for _, c := range []struct {
		ext  map[string]Value
		want string
	}{
		{nil, "core: HH: external variable threshold not bound at deployment"},
		{map[string]Value{"threshold": int64(1), "typo": int64(2)}, "core: HH: unknown external variable typo"},
		{map[string]Value{"threshold": int64(1), "zz": int64(2), "typo": int64(3), "aa": int64(4)}, "core: HH: unknown external variable aa"},
	} {
		for _, be := range parityBackends {
			for round := 0; round < 20; round++ {
				if _, err := newParityRunner(be, cm, c.ext, newMockHost()); err == nil || err.Error() != c.want {
					t.Fatalf("%s: err = %v, want %q", be, err, c.want)
				}
			}
		}
	}
}

func TestTriggerIgnoredInWrongState(t *testing.T) {
	src := `
machine M {
  place all;
  poll p = Poll { .ival = 1, .what = port ANY };
  long count;
  state a {
    when (p as x) do { count = count + 1; transit b; }
  }
  state b {
    when (enter) do { }
  }
}
`
	h := newMockHost()
	cm := compileSrc(t, src, "M")
	s, err := NewSeed(cm, nil, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	_ = s.HandleTrigger("p", List{})
	if s.State() != "b" {
		t.Fatalf("state = %s", s.State())
	}
	// In state b there is no handler for p: the firing is ignored.
	if err := s.HandleTrigger("p", List{}); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Var("count"); v != int64(1) {
		t.Fatalf("count = %v", v)
	}
}

func TestEnterExitOrder(t *testing.T) {
	src := `
machine M {
  place all;
  list trace;
  state a {
    when (enter) do { trace = list_append(trace, "enter-a"); }
    when (exit) do { trace = list_append(trace, "exit-a"); }
    when (recv long v from harvester) do { transit b; }
  }
  state b {
    when (enter) do { trace = list_append(trace, "enter-b"); }
  }
}
`
	h := newMockHost()
	s, err := NewSeed(compileSrc(t, src, "M"), nil, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleRecv(MsgSource{Harvester: true}, int64(1)); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Var("trace")
	got := FormatValue(v)
	want := `["enter-a", "exit-a", "enter-b"]`
	if got != want {
		t.Fatalf("trace = %s, want %s", got, want)
	}
}

func TestTransitLoopBounded(t *testing.T) {
	src := `
machine M {
  place all;
  state a { when (enter) do { transit b; } }
  state b { when (enter) do { transit a; } }
}
`
	h := newMockHost()
	s, err := NewSeed(compileSrc(t, src, "M"), nil, h)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Start()
	if err == nil || !strings.Contains(err.Error(), "transition chain") {
		t.Fatalf("err = %v, want bounded-transit error", err)
	}
}

func TestWhileLoopBounded(t *testing.T) {
	src := `
machine M {
  place all;
  state a { when (enter) do { while (true) { } } }
}
`
	h := newMockHost()
	s, err := NewSeed(compileSrc(t, src, "M"), nil, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil || !strings.Contains(err.Error(), "iterations") {
		t.Fatalf("err = %v, want bounded-loop error", err)
	}
}

func TestTriggerRetuning(t *testing.T) {
	src := `
machine M {
  place all;
  poll p = Poll { .ival = 10, .what = port ANY };
  state a {
    when (recv long v from harvester) do { p.ival = v; }
    when (recv float f from harvester) do { p = Poll { .ival = f, .what = port ANY }; }
  }
}
`
	h := newMockHost()
	s, err := NewSeed(compileSrc(t, src, "M"), nil, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleRecv(MsgSource{Harvester: true}, int64(50)); err != nil {
		t.Fatal(err)
	}
	if h.intervals["p"] != 50 {
		t.Fatalf("interval = %g, want 50", h.intervals["p"])
	}
	if err := s.HandleRecv(MsgSource{Harvester: true}, 2.5); err != nil {
		t.Fatal(err)
	}
	if h.intervals["p"] != 2.5 {
		t.Fatalf("interval = %g, want 2.5", h.intervals["p"])
	}
}

func TestSnapshotRestore(t *testing.T) {
	h := newMockHost()
	s := newHHSeed(t, h)
	// Mutate state: new threshold, detected hitters.
	_ = s.HandleRecv(MsgSource{Harvester: true}, int64(42))
	_ = s.HandleTrigger("pollStats", statsList(map[int]int64{7: 99999}))
	snap := s.Snapshot()

	// A fresh seed on another "switch" restores and continues.
	h2 := newMockHost()
	cm := compileSrc(t, hhRunnableSource, "HH")
	s2, err := NewSeed(cm, map[string]Value{"threshold": int64(1000)}, h2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if v, _ := s2.Var("threshold"); v != int64(42) {
		t.Fatalf("threshold = %v after restore", v)
	}
	if s2.State() != s.State() {
		t.Fatalf("state = %s vs %s", s2.State(), s.State())
	}
	// Snapshot must be a deep copy: mutating the restored seed must not
	// affect the snapshot or the original.
	_ = s2.HandleRecv(MsgSource{Harvester: true}, int64(7))
	if v, _ := s.Var("threshold"); v != int64(42) {
		t.Fatalf("original mutated: %v", v)
	}
}

func TestSnapshotRestoreWrongMachine(t *testing.T) {
	h := newMockHost()
	s := newHHSeed(t, h)
	snap := s.Snapshot()
	snap.Machine = "Other"
	if err := s.Restore(snap); err == nil {
		t.Fatal("expected machine-mismatch error")
	}
}

func TestExecHook(t *testing.T) {
	src := `
machine ML {
  place all;
  float prediction;
  state run {
    when (recv long v from harvester) do {
      prediction = exec("svr_predict", v);
    }
  }
}
`
	h := newMockHost()
	h.execFn = func(cmd string, arg Value) (Value, error) {
		if cmd != "svr_predict" {
			t.Fatalf("cmd = %s", cmd)
		}
		f, _ := AsFloat(arg)
		return f * 2, nil
	}
	s, err := NewSeed(compileSrc(t, src, "ML"), nil, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleRecv(MsgSource{Harvester: true}, int64(21)); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Var("prediction"); v != float64(42) {
		t.Fatalf("prediction = %v", v)
	}
	if len(h.execCalls) != 1 {
		t.Fatalf("exec calls = %v", h.execCalls)
	}
}

func TestActionCountAccounting(t *testing.T) {
	h := newMockHost()
	s := newHHSeed(t, h)
	s.TakeActionCount() // reset whatever Start consumed
	_ = s.HandleTrigger("pollStats", statsList(map[int]int64{1: 1}))
	n := s.TakeActionCount()
	if n == 0 {
		t.Fatal("no actions counted")
	}
	if s.TakeActionCount() != 0 {
		t.Fatal("counter not reset")
	}
}

func TestSeedToSeedSend(t *testing.T) {
	src := `
machine A {
  place all;
  state s {
    when (recv long v from harvester) do {
      send v to B @ "leaf1";
      send v to B;
    }
  }
}
machine B { place all; state s { when (enter) do {} } }
`
	h := newMockHost()
	s, err := NewSeed(compileSrc(t, src, "A"), nil, h)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Start()
	_ = s.HandleRecv(MsgSource{Harvester: true}, int64(5))
	if len(h.sent) != 2 {
		t.Fatalf("sent = %d", len(h.sent))
	}
	if h.sent[0].to.Machine != "B" || h.sent[0].to.Dst != "leaf1" {
		t.Fatalf("sent[0] = %+v", h.sent[0].to)
	}
	if h.sent[1].to.Dst != "" {
		t.Fatalf("sent[1] should be broadcast, got %+v", h.sent[1].to)
	}
}
