package soil

import (
	"fmt"
	"math/rand"
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

// The aggregation group polls at the fastest subscriber's rate; each
// subscriber is served at its own: the slow one, at ten times the fast
// one's interval, is handed every tenth completion; removing the fast
// subscriber slows the group back down.
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
	// The fast subscriber is handed every completion, the slow one every
	// tenth.
	vSlow, _ := s.SeedVar(slow.ID(), "polls")
	vFast, _ := s.SeedVar(fast.ID(), "polls")
	if vSlow.(int64) != vFast.(int64)/10 || vFast.(int64) < 180 {
		t.Fatalf("slow=%v fast=%v, want slow = fast/10 with fast ~200", vSlow, vFast)
	}
	if got := s.PollsDelivered(); got != uint64(vSlow.(int64)+vFast.(int64)) {
		t.Fatalf("%d polls delivered, want %v + %v", got, vSlow, vFast)
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

// Under a PCIe bus whose other traffic delays each completion by a
// different amount, a subscriber's cadence is counted in completions:
// with a 10 ms group, the 10 ms and 17 ms subscribers are handed every
// completion, the 20 ms one every second and the 100 ms one every tenth.
func TestPollCadenceUnderBusJitter(t *testing.T) {
	fab, loop := testEnv(t)
	leaf := leafID(t, fab, "leaf0")
	s := New(fab, leaf, DefaultOptions())
	s.SetSendFunc(func(SeedRef, core.SendDest, core.Value) {})
	ivals := []int{10, 17, 20, 100}
	refs := make([]SeedRef, len(ivals))
	for i, iv := range ivals {
		refs[i] = deployPoller(t, s, fmt.Sprintf("p%d", iv), iv)
	}
	// Bursts of 0-7 ms of bus work at random 3 ms ticks.
	bus := fab.Driver(leaf).Bus()
	rng := rand.New(rand.NewSource(7))
	jitter := loop.Every(3*time.Millisecond, func() {
		if rng.Intn(3) == 0 {
			bus.Request(1000*rng.Intn(8), func(time.Duration) {})
		}
	})
	loop.RunFor(2 * time.Second)
	jitter.Stop()
	if d := bus.Snapshot().DelayMax; d < 3*time.Millisecond {
		t.Fatalf("longest bus queueing delay %v: the jitter did not reach the polls", d)
	}
	completions := int64(s.groups["ports:all"].n)
	if issued := int64(s.PollsIssued()); completions < 190 || issued-completions > 1 {
		t.Fatalf("%d completions of %d polls issued, want ~200 with at most one in flight", completions, issued)
	}
	var delivered int64
	for i, iv := range ivals {
		k := int64(max(1, iv/ivals[0]))
		got := seedInts(t, s, refs[i], "polls")[0]
		delivered += got
		if i < 2 && got != completions {
			t.Fatalf("the %d ms subscriber was handed %d of %d completions, want every one", iv, got, completions)
		}
		if d := got - completions/k; d < -1 || d > 1 {
			t.Fatalf("the %d ms subscriber was handed %d of %d completions, want %d ± 1 (every %d)", iv, got, completions, completions/k, k)
		}
	}
	if s.PollsDelivered() != uint64(delivered) {
		t.Fatalf("%d polls delivered, want %d", s.PollsDelivered(), delivered)
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
