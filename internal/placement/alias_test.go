package placement

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"farm/internal/netmodel"
	"farm/internal/poly"
)

// The snapshots below are deep copies of everything a solve reads and
// may share: no map, slice or pointer in one is reachable from the
// original, so a write through any alias shows up in reflect.DeepEqual.
// Resource vectors and linear polynomials are values and copy whole.

type inputSnap struct {
	Switches []SwitchInfo
	Seeds    []seedSnap
	Current  map[string]Assignment
	Touched  []netmodel.SwitchID
	MigC     float64
	Flags    [2]bool
}

type seedSnap struct {
	ID, Task   string
	Candidates []netmodel.SwitchID
	Utility    poly.Utility
	Polls      []PollDemand
	Baked      *bakedSnap
}

type bakedSnap struct {
	Utility   poly.Utility
	Polls     []PollDemand
	Cases     []caseSnap
	PollNames []string
	Min       *minimalSnap
}

type caseSnap struct {
	Res                         []netmodel.Res
	UtilRows, ConRows, PollRows []rowSnap
}

type rowSnap struct {
	Res  []int
	Vals []float64
	Rhs  float64
}

type minimalSnap struct {
	Capacity netmodel.Vector
	Allocs   []netmodel.Vector
	Ok       []bool
	Utils    []float64
	BestMin  float64
}

func cloneUtility(u poly.Utility) poly.Utility {
	if u == nil {
		return nil
	}
	out := make(poly.Utility, len(u))
	for i, c := range u {
		out[i].Constraints = slices.Clone(c.Constraints)
		out[i].Util = slices.Clone(c.Util)
	}
	return out
}

func clonePlaced(m map[string]Assignment) map[string]Assignment { return maps.Clone(m) }

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
		Utility: cloneUtility(b.utility), Polls: slices.Clone(b.polls),
		PollNames: slices.Clone(b.pollNames),
	}
	for _, cl := range b.cases {
		s.Cases = append(s.Cases, caseSnap{
			Res:      slices.Clone(cl.res),
			UtilRows: cloneRows(cl.utilRows), ConRows: cloneRows(cl.conRows), PollRows: cloneRows(cl.pollRows),
		})
	}
	if m := b.min; m != nil {
		s.Min = &minimalSnap{
			Capacity: m.capacity, Allocs: slices.Clone(m.allocs), Ok: slices.Clone(m.ok),
			Utils: slices.Clone(m.utils), BestMin: m.bestMin,
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
	s.Switches = slices.Clone(in.Switches)
	for i := range in.Seeds {
		sp := &in.Seeds[i]
		s.Seeds = append(s.Seeds, seedSnap{
			ID: sp.ID, Task: sp.Task,
			Candidates: slices.Clone(sp.Candidates),
			Utility:    cloneUtility(sp.Utility), Polls: slices.Clone(sp.Polls),
			Baked: snapBaked(sp.Baked),
		})
	}
	return s
}

// TestSolveWritesNothingItDoesNotOwn pins the sharing rules a solve
// relies on: the seeds of a machine share its Baked and the minimal
// allocations published in it, and a solve shares the Input.Current and
// the earlier Results it is handed — so nothing a solve is handed may be
// written. Deep copies of the Input (every Current allocation, every
// carried Baked with its published minimal allocations) and of the
// previous Result, whose allocations are that Current, must be unchanged
// by a full, a warm, a migrating and a SkipRedistribution solve, run one
// after another on the same values, and by a "place all" solve in which
// switches share one memoized step-3 answer — once with switches of
// equal capacity and once with every switch given the first one's.
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
			if cur, ok := in.Current[id]; ok && a.Alloc != (netmodel.Vector{}) && a.Alloc == cur.Alloc {
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
