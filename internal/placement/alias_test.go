package placement

import (
	"reflect"
	"slices"
	"testing"

	"farm/internal/netmodel"
	"farm/internal/poly"
)

// The snapshots below are deep copies of everything a solve reads and
// may share: no map, slice or pointer in one is reachable from the
// original, so a write through any alias shows up in reflect.DeepEqual.

type inputSnap struct {
	Switches []SwitchInfo
	Seeds    []seedSnap
	Current  map[string]Assignment
	Touched  []netmodel.SwitchID
	MigC     float64
	Flags    [2]bool
}

type seedSnap struct {
	ID, Task, Machine string
	Candidates        []netmodel.SwitchID
	Utility           poly.Utility
	Polls             []PollDemand
	Baked             *bakedSnap
}

type bakedSnap struct {
	Utility   poly.Utility
	Polls     []PollDemand
	Cases     []caseSnap
	PollNames []string
	Min       *minimalSnap
}

type caseSnap struct {
	Res                         []string
	UtilRows, ConRows, PollRows []rowSnap
}

type rowSnap struct {
	Res  []int
	Vals []float64
	Rhs  float64
}

type minimalSnap struct {
	Key     []capEntry
	Allocs  []netmodel.Resources
	Utils   []float64
	BestMin float64
}

func cloneLinear(l poly.Linear) poly.Linear {
	c := poly.Linear{Const: l.Const}
	if l.Coef != nil {
		c.Coef = map[string]float64{}
		for k, v := range l.Coef {
			c.Coef[k] = v
		}
	}
	return c
}

func cloneUtility(u poly.Utility) poly.Utility {
	if u == nil {
		return nil
	}
	out := make(poly.Utility, len(u))
	for i, c := range u {
		for _, con := range c.Constraints {
			out[i].Constraints = append(out[i].Constraints, cloneLinear(con))
		}
		for _, term := range c.Util {
			out[i].Util = append(out[i].Util, cloneLinear(term))
		}
	}
	return out
}

func clonePolls(ps []PollDemand) []PollDemand {
	var out []PollDemand
	for _, p := range ps {
		out = append(out, PollDemand{Subject: p.Subject, Rate: cloneLinear(p.Rate)})
	}
	return out
}

func clonePlaced(m map[string]Assignment) map[string]Assignment {
	if m == nil {
		return nil
	}
	out := make(map[string]Assignment, len(m))
	for id, a := range m {
		a.Alloc = a.Alloc.Clone()
		out[id] = a
	}
	return out
}

func cloneRows(rows []lpRow) []rowSnap {
	var out []rowSnap
	for _, r := range rows {
		out = append(out, rowSnap{slices.Clone(r.res), slices.Clone(r.vals), r.rhs})
	}
	return out
}

func snapBaked(b *Baked) *bakedSnap {
	if b == nil {
		return nil
	}
	s := &bakedSnap{
		Utility: cloneUtility(b.utility), Polls: clonePolls(b.polls),
		PollNames: slices.Clone(b.pollNames),
	}
	for _, cl := range b.cases {
		s.Cases = append(s.Cases, caseSnap{
			Res:      slices.Clone(cl.res),
			UtilRows: cloneRows(cl.utilRows), ConRows: cloneRows(cl.conRows), PollRows: cloneRows(cl.pollRows),
		})
	}
	if m := b.min; m != nil {
		s.Min = &minimalSnap{Key: slices.Clone(m.key), Utils: slices.Clone(m.utils), BestMin: m.bestMin}
		for _, a := range m.allocs {
			if a == nil {
				s.Min.Allocs = append(s.Min.Allocs, nil)
			} else {
				s.Min.Allocs = append(s.Min.Allocs, a.Clone())
			}
		}
	}
	return s
}

func snapInput(in *Input) inputSnap {
	s := inputSnap{
		Current: clonePlaced(in.Current), Touched: slices.Clone(in.Touched),
		MigC:  in.MigrationCost,
		Flags: [2]bool{in.DisableMigration, in.SkipRedistribution},
	}
	for _, sw := range in.Switches {
		s.Switches = append(s.Switches, SwitchInfo{ID: sw.ID, Capacity: sw.Capacity.Clone()})
	}
	for i := range in.Seeds {
		sp := &in.Seeds[i]
		s.Seeds = append(s.Seeds, seedSnap{
			ID: sp.ID, Task: sp.Task, Machine: sp.Machine,
			Candidates: slices.Clone(sp.Candidates),
			Utility:    cloneUtility(sp.Utility), Polls: clonePolls(sp.Polls),
			Baked: snapBaked(sp.Baked),
		})
	}
	return s
}

// mapID identifies a map value, to tell a shared map from an equal copy.
func mapID(m netmodel.Resources) uintptr { return reflect.ValueOf(m).Pointer() }

// TestSolveWritesNothingItDoesNotOwn pins the aliasing rules a solve
// relies on (see Assignment): pinned seeds keep their Current Alloc
// maps, greedy placements share their machine's minimal allocations, and
// an unchanged LP answer keeps the map it had — so nothing a solve is
// handed may be written. Deep copies of the Input (every Current
// allocation, every carried Baked with its published minimal
// allocations) and of the previous Result, whose allocations are that
// Current, must be unchanged by a full, a warm, a migrating and a
// SkipRedistribution solve, run one after another on the same values,
// and by a "place all" solve in which switches share one memoized
// step-3 answer — once with a capacity map each and once with one map
// for all of them. No solve writes a SwitchInfo.Capacity: the seeder
// hands in the topology's own maps.
func TestSolveWritesNothingItDoesNotOwn(t *testing.T) {
	base := digestScenario()
	first := map[string]int{}
	for i := range base.Seeds {
		s := &base.Seeds[i]
		if f, ok := first[s.Task]; ok {
			s.Utility, s.Polls = base.Seeds[f].Utility, base.Seeds[f].Polls
			s.Baked = base.Seeds[f].Baked
		} else {
			first[s.Task] = i
			s.Baked = Bake(s)
		}
	}
	// Every capacity map as it was before any solve, by identity: a
	// write that a later solve repeats must show too.
	pristine := map[uintptr]netmodel.Resources{}
	keepCaps := func(in *Input) {
		for _, sw := range in.Switches {
			pristine[mapID(sw.Capacity)] = sw.Capacity.Clone()
		}
	}
	keepCaps(base)
	// The previous solve: it publishes every machine's minimal
	// allocations, and its Placed becomes the Current of what follows.
	prev := solveChecked(t, base)
	prevSnap := clonePlaced(prev.Placed)

	// A second previous placement on half the switches, so that the
	// migrating solve has seeds worth moving.
	half := *base
	half.Switches = base.Switches[:len(base.Switches)/2]
	half.Seeds = nil
	for _, s := range base.Seeds {
		var cands []netmodel.SwitchID
		for _, c := range s.Candidates {
			if int(c) < len(half.Switches) {
				cands = append(cands, c)
			}
		}
		if len(cands) > 0 {
			s.Candidates = cands
			half.Seeds = append(half.Seeds, s)
		}
	}
	halfRes := solveChecked(t, &half)

	// Identical switches holding the same seeds: step 3 solves the first
	// one's LP and the others reuse its answer. Solved once here to
	// publish its machines' minimal allocations.
	placeAll := placeAllScenario(6, 3, 0, 5)
	keepCaps(placeAll)
	solveChecked(t, placeAll)

	var touched []netmodel.SwitchID
	for _, id := range []string{base.Seeds[0].ID, base.Seeds[1].ID} {
		if a, ok := prev.Placed[id]; ok {
			touched = append(touched, a.Switch)
		}
	}
	solves := []struct {
		name string
		mut  func(in *Input)
	}{
		{"full", func(in *Input) {}},
		{"warm", func(in *Input) { in.Touched = touched }},
		{"migrating", func(in *Input) { in.Current = halfRes.Placed; in.MigrationCost = 0.1 }},
		{"skip-redistribution", func(in *Input) { in.SkipRedistribution = true }},
		{"shared-answer", func(in *Input) { *in = *placeAll }},
		{"shared-capacity", func(in *Input) {
			*in = *placeAll
			in.Switches = slices.Clone(placeAll.Switches)
			for i := range in.Switches {
				in.Switches[i].Capacity = placeAll.Switches[0].Capacity
			}
		}},
	}
	memos := map[*Baked]*minimal{}
	for i := range base.Seeds {
		sh := base.Seeds[i].Baked
		memos[sh] = sh.min
		if memos[sh] == nil {
			t.Fatalf("seed %s: no minimal allocations published by the first solve", base.Seeds[i].ID)
		}
	}
	shared, migrated, hits, sharedAnswers := 0, 0, 0, 0
	testMemo = func(_ netmodel.SwitchID, hit bool) bool {
		if hit {
			hits++
		}
		return false
	}
	defer func() { testMemo = nil }()
	for _, s := range solves {
		in := *base
		in.Current = prev.Placed
		s.mut(&in)
		before := snapInput(&in)
		halfBefore := clonePlaced(halfRes.Placed)
		hits = 0
		res, err := Heuristic(&in)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if err := CheckFeasible(&in, res); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, sw := range in.Switches {
			if was := pristine[mapID(sw.Capacity)]; !reflect.DeepEqual(was, sw.Capacity) {
				t.Fatalf("%s: a solve wrote switch %d's Capacity: %v, was %v", s.name, sw.ID, sw.Capacity, was)
			}
		}
		if after := snapInput(&in); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: the solve wrote into its Input", s.name)
		}
		if !reflect.DeepEqual(prevSnap, prev.Placed) || !reflect.DeepEqual(halfBefore, halfRes.Placed) {
			t.Fatalf("%s: the solve wrote into an earlier Result", s.name)
		}
		for sh, m := range memos {
			if sh.min != m {
				t.Fatalf("%s: minimal allocations republished at an unchanged capacity vector", s.name)
			}
		}
		for id, a := range res.Placed {
			if cur, ok := in.Current[id]; ok && len(a.Alloc) > 0 && mapID(a.Alloc) == mapID(cur.Alloc) {
				shared++
			}
		}
		migrated += res.Migrations
		if s.name == "shared-answer" || s.name == "shared-capacity" {
			sharedAnswers += hits
		}
	}
	// The rules are exercised, not only declared.
	if shared == 0 || migrated == 0 || sharedAnswers == 0 {
		t.Fatalf("%d allocations kept from Current, %d migrations, %d switches reusing an answer: the aliasing paths went untested",
			shared, migrated, sharedAnswers)
	}
	t.Logf("%d allocations kept from Current, %d migrations, %d switches reusing an answer", shared, migrated, sharedAnswers)
}
