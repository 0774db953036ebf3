package placement

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"farm/internal/netmodel"
	"farm/internal/poly"
)

// solveMemoAndOracle solves in twice: with step 3's memo, then with
// every memo lookup turned into a miss, so that each switch's LP is
// built and solved as it comes. The two results must be the same bit
// for bit: digest, every seed's switch, case, utility and allocation,
// the dropped tasks and the migration count. It returns the memoized
// result and how many lookups hit.
func solveMemoAndOracle(t testing.TB, in *Input) (*Result, int) {
	t.Helper()
	defer func() { testMemo = nil }()
	hits := 0
	testMemo = func(_ netmodel.SwitchID, hit bool) bool {
		if hit {
			hits++
		}
		return false
	}
	got, gerr := Heuristic(in)
	testMemo = func(netmodel.SwitchID, bool) bool { return true }
	want, werr := Heuristic(in)
	if gerr != nil || werr != nil {
		t.Fatalf("memo: %v; every lookup a miss: %v", gerr, werr)
	}
	if err := CheckFeasible(in, got); err != nil {
		t.Fatal(err)
	}
	if g, w := got.Digest(), want.Digest(); g != w {
		t.Fatalf("digest %s with the memo, %s with every lookup a miss", g, w)
	}
	if len(got.Placed) != len(want.Placed) || !slices.Equal(got.DroppedTasks, want.DroppedTasks) ||
		got.Migrations != want.Migrations || math.Float64bits(got.Utility) != math.Float64bits(want.Utility) {
		t.Fatalf("memo: %d placed, dropped %v, %d migrations, utility %v; every lookup a miss: %d, %v, %d, %v",
			len(got.Placed), got.DroppedTasks, got.Migrations, got.Utility,
			len(want.Placed), want.DroppedTasks, want.Migrations, want.Utility)
	}
	for id, w := range want.Placed {
		g, ok := got.Placed[id]
		if !ok || g.Switch != w.Switch || g.Case != w.Case ||
			math.Float64bits(g.Utility) != math.Float64bits(w.Utility) || !sameCapacity(g.Alloc, w.Alloc) {
			t.Fatalf("seed %s: %+v with the memo, %+v with every lookup a miss", id, g, w)
		}
	}
	return got, hits
}

// placeAllScenario is the problem a "place all" submit makes: tasks
// tasks, each with one seed per switch whose candidates are that switch
// and, with extra > 0, the next extra switches. A task's seeds share one
// Utility, Polls and baked shape, as a machine's seeds do in the seeder.
// With extra = 0 and equal capacities, every switch holds the same
// seeds in the same cases and ID order.
func placeAllScenario(switches, tasks, extra int, seed int64) *Input {
	rng := rand.New(rand.NewSource(seed))
	in := &Input{}
	for i := 0; i < switches; i++ {
		in.Switches = append(in.Switches, SwitchInfo{ID: netmodel.SwitchID(i), Capacity: netmodel.DefaultLeafCapacity()})
	}
	for t := 0; t < tasks; t++ {
		prof := profiles[rng.Intn(len(profiles))]
		util, polls := prof.utilOf(rng), prof.pollRate(rng)
		var like *Baked
		for i := 0; i < switches; i++ {
			s := SeedSpec{
				ID: fmt.Sprintf("t%d/s%03d", t, i), Task: fmt.Sprintf("task%d", t), Machine: prof.name,
				Utility: util, Polls: polls,
			}
			for j := 0; j <= extra && j < switches; j++ {
				s.Candidates = append(s.Candidates, netmodel.SwitchID((i+j)%switches))
			}
			s.Baked = Bake(&s, like)
			like = s.Baked
			in.Seeds = append(in.Seeds, s)
		}
	}
	return in
}

// Instance kinds of FuzzRedistMemo.
const (
	memoRandom    = iota // RandomScenario, optionally with shapes shared per task
	memoIdentical        // placeAllScenario, equal capacities
	memoOneRes           // placeAllScenario, capacities that differ in one resource
	memoKinds
)

// FuzzRedistMemo: step 3's memo changes no answer. Random Fig. 7
// instances, "place all" instances on identical switches and on
// switches whose capacities differ in one resource (by one ulp or by
// half) are solved cold, warm (the cold answer as Current, a task
// retired, its switches Touched) and migrating (Current from a solve on
// half the switches, a low migration cost), each with the memo and
// with every lookup a miss; the results must match bit for bit. On
// identical switches where each seed has one candidate, every switch
// but the first reuses the first one's answer.
func FuzzRedistMemo(f *testing.F) {
	for kind := uint8(0); kind < memoKinds; kind++ {
		f.Add(kind, int64(1), uint8(6), uint8(3), uint8(0))
		f.Add(kind, int64(7), uint8(9), uint8(5), uint8(1))
		f.Add(kind, int64(23), uint8(4), uint8(2), uint8(2))
	}
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, switches, tasks, extra uint8) {
		kind %= memoKinds
		ns, nt, ne := 2+int(switches%10), 1+int(tasks%6), int(extra%3)
		var in *Input
		switch kind {
		case memoRandom:
			in = RandomScenario(ScenarioConfig{Switches: ns, Seeds: 2 * ns, Tasks: nt, Seed: seed})
			if ne > 0 {
				first := map[string]*Baked{}
				for i := range in.Seeds {
					s := &in.Seeds[i]
					if like, ok := first[s.Task]; ok {
						s.Utility, s.Polls = like.shape.utility, like.shape.polls
						s.Baked = Bake(s, like)
					} else {
						s.Baked = Bake(s, nil)
						first[s.Task] = s.Baked
					}
				}
			}
		default:
			in = placeAllScenario(ns, nt, ne, seed)
			if kind == memoOneRes {
				rng := rand.New(rand.NewSource(seed))
				res := []string{netmodel.ResVCPU, netmodel.ResRAM, netmodel.ResTCAM, netmodel.ResPCIe, netmodel.ResPoll}[rng.Intn(5)]
				for i := range in.Switches {
					c := in.Switches[i].Capacity
					switch rng.Intn(3) {
					case 0:
						c[res] = math.Nextafter(c[res], math.Inf(1))
					case 1:
						c[res] *= 1.5
					}
				}
			}
		}

		cold, hits := solveMemoAndOracle(t, in)
		if kind == memoIdentical && ne == 0 && len(cold.Placed) > 0 && hits < ns-1 {
			t.Fatalf("%d switches with the same signature, %d memo hits", ns, hits)
		}

		warm := *in
		warm.Current = maps.Clone(cold.Placed)
		dropTask(&warm, in.Seeds[0].Task)
		solveMemoAndOracle(t, &warm)

		half := *in
		half.Switches = in.Switches[:ns/2]
		half.Seeds = nil
		for _, s := range in.Seeds {
			s.Candidates = slices.DeleteFunc(slices.Clone(s.Candidates), func(id netmodel.SwitchID) bool { return int(id) >= ns/2 })
			if len(s.Candidates) > 0 {
				half.Seeds = append(half.Seeds, s)
			}
		}
		halfRes, _ := solveMemoAndOracle(t, &half)
		mig := *in
		mig.Current = halfRes.Placed
		mig.MigrationCost = 0.1
		solveMemoAndOracle(t, &mig)
	})
}

// TestRedistMemoSignature: two switches share an LP answer exactly when
// their signatures match — the same capacity bit for bit and, in ID
// order, seeds of the same shapes in the same cases — and not when they
// differ only in one seed's case, in one capacity bit, or in the ID
// order of two tasks' seeds.
func TestRedistMemoSignature(t *testing.T) {
	// Machine x has two cases (a cheap fallback second), machine y one.
	x := poly.Utility{
		{
			Constraints: []poly.Linear{poly.Term(netmodel.ResVCPU, 1).Sub(poly.Constant(0.5))},
			Util:        poly.MinOf(poly.Term(netmodel.ResVCPU, 9)),
		},
		{
			Constraints: []poly.Linear{poly.Term(netmodel.ResVCPU, 1).Sub(poly.Constant(0.1))},
			Util:        poly.MinOf(poly.Term(netmodel.ResVCPU, 3)),
		},
	}
	xPolls := []PollDemand{{Subject: "rule:flows", Rate: poly.Constant(60)}}
	y := boundedUtility(0.25, 64, poly.MinOf(poly.Term(netmodel.ResVCPU, 8), poly.Term(netmodel.ResPCIe, 10)))
	yPolls := []PollDemand{{Subject: "ports:all", Rate: poly.Term(netmodel.ResPCIe, 50)}}

	type probe struct {
		id string
		x  bool // machine x, else y
		cs int
	}
	for _, tc := range []struct {
		name  string
		on    [2][]probe // the seeds of switches 0 and 1
		bump  bool       // switch 1's vCPU one ulp larger
		share bool
	}{
		{"same signature", [2][]probe{{{"a", true, 0}, {"b", false, 0}}, {{"c", true, 0}, {"d", false, 0}}}, false, true},
		{"one case", [2][]probe{{{"a", true, 0}, {"b", false, 0}}, {{"c", true, 1}, {"d", false, 0}}}, false, false},
		{"one capacity bit", [2][]probe{{{"a", true, 0}, {"b", false, 0}}, {{"c", true, 0}, {"d", false, 0}}}, true, false},
		{"ID order", [2][]probe{{{"a", true, 0}, {"b", false, 0}}, {{"c", false, 0}, {"d", true, 0}}}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := &Input{}
			for i := 0; i < 2; i++ {
				in.Switches = append(in.Switches, SwitchInfo{ID: netmodel.SwitchID(i), Capacity: netmodel.DefaultLeafCapacity()})
			}
			if tc.bump {
				c := in.Switches[1].Capacity
				c[netmodel.ResVCPU] = math.Nextafter(c[netmodel.ResVCPU], math.Inf(1))
			}
			var like [2]*Baked
			for _, on := range tc.on {
				for _, p := range on {
					s := SeedSpec{ID: p.id, Task: "ty", Machine: "y", Candidates: []netmodel.SwitchID{0, 1}, Utility: y, Polls: yPolls}
					m := 1
					if p.x {
						s.Task, s.Machine, s.Utility, s.Polls, m = "tx", "x", x, xPolls, 0
					}
					s.Baked = Bake(&s, like[m])
					like[m] = s.Baked
					in.Seeds = append(in.Seeds, s)
				}
			}

			st := heurPool.Get().(*heurState)
			defer st.release()
			if err := in.validate(st.swIdx, st.seedIdx); err != nil {
				t.Fatal(err)
			}
			st.reset(in)
			for si, on := range tc.on {
				for _, p := range on {
					st.placeSeed(st.seedIdx[p.id], int32(si), p.cs)
				}
			}
			var hits []bool
			testMemo = func(_ netmodel.SwitchID, hit bool) bool {
				hits = append(hits, hit)
				return false
			}
			defer func() { testMemo = nil }()
			for si := range tc.on {
				if err := st.redistribute(int32(si)); err != nil {
					t.Fatal(err)
				}
			}
			if want := []bool{false, tc.share}; !slices.Equal(hits, want) {
				t.Fatalf("lookups hit %v, want %v", hits, want)
			}
		})
	}
}
