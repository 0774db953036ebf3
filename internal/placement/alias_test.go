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
	Flags    [3]bool
	Parallel int
}

type seedSnap struct {
	ID, Task, Machine string
	Candidates        []netmodel.SwitchID
	Utility           poly.Utility
	Polls             []PollDemand
	Baked             *bakedSnap
}

type bakedSnap struct {
	ID, UtilName string
	VarNames     [][]string
	Utility      poly.Utility
	Polls        []PollDemand
	Cases        []caseSnap
	PollNames    []string
	Min          *minimalSnap
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
	sh := b.shape
	s := &bakedSnap{
		ID: b.id, UtilName: b.utilName,
		Utility: cloneUtility(sh.utility), Polls: clonePolls(sh.polls),
		PollNames: slices.Clone(sh.pollNames),
	}
	for _, names := range b.varNames {
		s.VarNames = append(s.VarNames, slices.Clone(names))
	}
	for _, cl := range sh.cases {
		s.Cases = append(s.Cases, caseSnap{
			Res:      slices.Clone(cl.res),
			UtilRows: cloneRows(cl.utilRows), ConRows: cloneRows(cl.conRows), PollRows: cloneRows(cl.pollRows),
		})
	}
	if m := sh.min.Load(); m != nil {
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
		MigC:     in.MigrationCost,
		Flags:    [3]bool{in.DisableMigration, in.SkipRedistribution, in.ForceFull},
		Parallel: in.Parallel,
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
// Current, must be unchanged by a full, a warm, a migrating, a
// SkipRedistribution and a four-worker solve, run one after another on
// the same values. Under -race the four-worker solve also checks that
// its step-3 workers only read what they share.
func TestSolveWritesNothingItDoesNotOwn(t *testing.T) {
	base := digestScenario()
	first := map[string]int{}
	for i := range base.Seeds {
		s := &base.Seeds[i]
		if f, ok := first[s.Task]; ok {
			s.Utility, s.Polls = base.Seeds[f].Utility, base.Seeds[f].Polls
			s.Baked = Bake(s, base.Seeds[f].Baked)
		} else {
			first[s.Task] = i
			s.Baked = Bake(s, nil)
		}
	}
	// The previous solve: it publishes every machine's minimal
	// allocations, and its Placed becomes the Current of what follows.
	prev := solveAt(t, base, -1)
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
	halfRes := solveAt(t, &half, -1)

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
		{"parallel", func(in *Input) { in.Touched = touched; in.Parallel = 4 }},
	}
	memos := map[*bakedShape]*minimal{}
	for i := range base.Seeds {
		sh := base.Seeds[i].Baked.shape
		memos[sh] = sh.min.Load()
		if memos[sh] == nil {
			t.Fatalf("seed %s: no minimal allocations published by the first solve", base.Seeds[i].ID)
		}
	}
	shared, migrated := 0, 0
	for _, s := range solves {
		in := *base
		in.Current = prev.Placed
		s.mut(&in)
		before := snapInput(&in)
		halfBefore := clonePlaced(halfRes.Placed)
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
			if sh.min.Load() != m {
				t.Fatalf("%s: minimal allocations republished at an unchanged capacity vector", s.name)
			}
		}
		for id, a := range res.Placed {
			if cur, ok := in.Current[id]; ok && len(a.Alloc) > 0 && mapID(a.Alloc) == mapID(cur.Alloc) {
				shared++
			}
		}
		migrated += res.Migrations
	}
	// The rules are exercised, not only declared.
	if shared == 0 || migrated == 0 {
		t.Fatalf("%d allocations kept from Current, %d migrations: the aliasing paths went untested", shared, migrated)
	}
	t.Logf("%d allocations kept from Current, %d migrations", shared, migrated)
}
