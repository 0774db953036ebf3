package soil

import (
	"fmt"
	"testing"
	"time"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/dataplane"
	"farm/internal/netmodel"
)

// pollerSource builds a machine polling port ANY at the given interval.
func pollerSource(ivalMs int) string {
	return fmt.Sprintf(`
machine Poller {
  place all;
  poll p = Poll { .ival = %d, .what = port ANY };
  long polls;
  state s {
    util (res) { if (res.vCPU >= 0.01) then { return 1; } }
    when (p as recs) do { polls = polls + 1; }
  }
}
`, ivalMs)
}

func deployPoller(t *testing.T, s *Soil, task string, ivalMs int) SeedRef {
	t.Helper()
	return deployMachine(t, s, task, pollerSource(ivalMs), "Poller")
}

// The aggregation group polls at the fastest subscriber's rate; every
// subscriber is served at that rate; removing the fast subscriber slows
// the group back down.
func TestAggregationGroupRateIsMinInterval(t *testing.T) {
	fab, loop := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), DefaultOptions())
	s.SetSendFunc(func(SeedRef, core.SendDest, core.Value) {})

	slow := deployPoller(t, s, "slow", 50) // 20/s
	fast := deployPoller(t, s, "fast", 5)  // 200/s

	loop.RunFor(time.Second)
	issued := s.PollsIssued()
	// One shared group at the fast rate: ~200 polls in 1s (not 220).
	if issued < 180 || issued > 220 {
		t.Fatalf("polls issued = %d, want ~200 (group at min interval)", issued)
	}
	// The slow subscriber receives every group firing.
	vSlow, _ := s.SeedVar(slow.ID(), "polls")
	vFast, _ := s.SeedVar(fast.ID(), "polls")
	if vSlow.(int64) != vFast.(int64) {
		t.Fatalf("subscribers diverged: slow=%v fast=%v", vSlow, vFast)
	}

	// Removing the fast subscriber retunes the group to the slow rate.
	if err := s.Remove(fast.ID()); err != nil {
		t.Fatal(err)
	}
	before := s.PollsIssued()
	loop.RunFor(time.Second)
	delta := s.PollsIssued() - before
	if delta < 15 || delta > 25 {
		t.Fatalf("polls after removal = %d/s, want ~20 (retuned to slow)", delta)
	}
}

// Without aggregation each subscription drives its own poll stream.
func TestNoAggregationSeparateStreams(t *testing.T) {
	fab, loop := testEnv(t)
	s := New(fab, leafID(t, fab, "leaf0"), Options{ExecModel: Threads, Aggregation: false})
	s.SetSendFunc(func(SeedRef, core.SendDest, core.Value) {})
	deployPoller(t, s, "a", 10)
	deployPoller(t, s, "b", 10)
	loop.RunFor(time.Second)
	// Two independent 100/s streams.
	if issued := s.PollsIssued(); issued < 180 || issued > 220 {
		t.Fatalf("polls issued = %d, want ~200 (two streams)", issued)
	}
}

// Distinct subjects never share a group even with aggregation on.
func TestDistinctSubjectsDistinctGroups(t *testing.T) {
	src := `
machine RulePoller {
  place all;
  poll p = Poll { .ival = 10, .what = dstPort %d };
  long polls;
  state s {
    util (res) { if (res.vCPU >= 0.01) then { return 1; } }
    when (p as recs) do { polls = polls + 1; }
  }
}
`
	fab, loop := testEnv(t)
	leaf := leafID(t, fab, "leaf0")
	s := New(fab, leaf, DefaultOptions())
	s.SetSendFunc(func(SeedRef, core.SendDest, core.Value) {})
	for i, port := range []int{80, 443} {
		// Install the rules so the polls have subjects to read.
		if err := fab.Switch(leaf).TCAM().AddRule(ruleFor(port)); err != nil {
			t.Fatal(err)
		}
		prog, err := almanac.Parse(fmt.Sprintf(src, port))
		if err != nil {
			t.Fatal(err)
		}
		cm, err := almanac.CompileMachine(prog, "RulePoller")
		if err != nil {
			t.Fatal(err)
		}
		ref := SeedRef{Task: fmt.Sprintf("t%d", i), Machine: "RulePoller", Switch: s.Name()}
		alloc := netmodel.Vector{netmodel.ResVCPU: 0.01, netmodel.ResRAM: 1, netmodel.ResPoll: 500}
		if err := s.DeployCompiled(ref, ref.ID(), mustPrepare(t, cm, nil), alloc); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunFor(time.Second)
	// Two subjects -> two 100/s streams.
	if issued := s.PollsIssued(); issued < 180 || issued > 220 {
		t.Fatalf("polls issued = %d, want ~200", issued)
	}
}

func ruleFor(port int) dataplane.Rule {
	return dataplane.Rule{
		Priority: 1,
		Filter:   dataplane.Filter{DstPort: uint16(port)},
		Action:   dataplane.ActCount,
	}
}
